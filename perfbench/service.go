package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"vlasov6d/internal/catalog"
	"vlasov6d/internal/runner"
	"vlasov6d/internal/serve"
)

// serviceCkptEvery is vlasovd's default checkpoint cadence (-ckpt-every).
const serviceCkptEvery = 25

// rig is an in-process vlasovd behind an httptest listener on localhost.
type rig struct {
	srv    *serve.Server
	hs     *httptest.Server
	client *http.Client
}

// boot starts the service over dir's store and checkpoint directories —
// replaying whatever journal is there — and waits until it answers.
func boot(dir string, cat *catalog.Catalog) (*rig, error) {
	srv, err := serve.New(context.Background(), serve.Config{
		Catalog:         cat,
		Budget:          nproc(),
		CheckpointDir:   filepath.Join(dir, "ckpt"),
		CheckpointEvery: serviceCkptEvery,
		StoreDir:        filepath.Join(dir, "store"),
	})
	if err != nil {
		return nil, err
	}
	r := &rig{srv: srv, hs: httptest.NewServer(srv.Handler())}
	r.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * nproc()}}
	resp, err := r.client.Get(r.hs.URL + "/healthz")
	if err != nil {
		r.close()
		return nil, err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		r.close()
		return nil, fmt.Errorf("healthz: %s", resp.Status)
	}
	return r, nil
}

func (r *rig) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = r.srv.Drain(ctx) // a forced drain still stops every job
	r.client.CloseIdleConnections()
	r.hs.Close()
	r.srv.Close()
}

// jobSpecs lists every landau job shape the service workload submits.
func jobSpecs(sz jobsSize) []catalog.JobSpec {
	var out []catalog.JobSpec
	for _, nx := range sz.NX {
		for _, nv := range sz.NV {
			out = append(out, catalog.JobSpec{
				Scenario: "landau",
				Params:   map[string]any{"nx": nx, "nv": nv},
				Until:    sz.Until,
			})
		}
	}
	return out
}

// outcome is one served job as its client saw it.
type outcome struct {
	shape           int // index into jobSpecs
	submit, latency time.Duration
	cells           float64
	gaps            int
	spans           map[string]float64 // trace span name → total seconds
}

// loopStats aggregates a closed-loop session.
type loopStats struct {
	mu        sync.Mutex
	jobs      []outcome
	attempted int
	failures  []string
	wall      time.Duration
	cpu       float64 // process CPU seconds over the loop, clients included
	heap      float64 // retained heap after HeapJobs jobs, bytes
}

// closedLoop runs nproc clients against the rig until d has elapsed. Each
// client submits a seeded job, tails its diagnostics stream to done, then
// reads its status (and, when traced, its lifecycle trace) before
// submitting the next: vlasovd's own callers wait for each job.
func (r *rig) closedLoop(sz jobsSize, seed int64, d time.Duration, traced bool) *loopStats {
	st := &loopStats{}
	specs := jobSpecs(sz)
	// The server retains finished jobs, so its heap grows with the jobs it
	// has run: it is measured once, after HeapJobs jobs — a fixed amount
	// of work, not however many the run's time allowed.
	var heapOnce sync.Once
	takeHeap := func() { heapOnce.Do(func() { st.heap = liveHeap() }) }
	t0, cpu0 := time.Now(), cpuSeconds()
	deadline := t0.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < nproc(); c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			// Each client walks seeded shuffles of the job shapes, so every
			// run serves the shapes in equal shares and the seed only
			// changes their order.
			rng := rand.New(rand.NewSource(seed*7919 + int64(c)))
			var order []int
			for i := 0; i == 0 || time.Now().Before(deadline); i++ {
				if len(order) == 0 {
					order = rng.Perm(len(specs))
				}
				shape := order[0]
				order = order[1:]
				spec := specs[shape]
				spec.Name = fmt.Sprintf("bench-%d-%d", c, i)
				o, err := r.job(spec, traced)
				o.shape = shape
				st.mu.Lock()
				st.attempted++
				if err != nil {
					st.failures = append(st.failures, fmt.Sprintf("job %s: %v", spec.Name, err))
				} else {
					st.jobs = append(st.jobs, o)
				}
				done := st.attempted >= sz.HeapJobs
				st.mu.Unlock()
				if done {
					takeHeap()
				}
			}
		}(c)
	}
	wg.Wait()
	st.wall = time.Since(t0)
	st.cpu = cpuSeconds() - cpu0
	takeHeap()
	return st
}

// job runs one job through the public HTTP surface and checks it: 2xx on
// submit, a done event, status done at clock == until, finite diagnostics.
func (r *rig) job(spec catalog.JobSpec, traced bool) (outcome, error) {
	var o outcome
	body, err := json.Marshal(spec)
	if err != nil {
		return o, err
	}
	t0 := time.Now()
	resp, err := r.client.Post(r.hs.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return o, err
	}
	var sub struct {
		ID int `json:"id"`
	}
	err = json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return o, fmt.Errorf("submit: %s", resp.Status)
	}
	if err != nil {
		return o, fmt.Errorf("submit: %w", err)
	}
	o.submit = time.Since(t0)
	base := fmt.Sprintf("%s/v1/jobs/%d", r.hs.URL, sub.ID)
	if o.gaps, err = r.tail(base + "/diagnostics"); err != nil {
		return o, err
	}
	o.latency = time.Since(t0)

	var status struct {
		Status string `json:"status"`
		Error  string `json:"error"`
		Report struct {
			Steps int `json:"steps"`
			Clock any `json:"clock"`
		} `json:"report"`
	}
	if err := r.getJSON(base, &status); err != nil {
		return o, err
	}
	clock, ok := status.Report.Clock.(float64)
	if status.Status != "done" || !ok || math.Abs(clock-spec.Until) > 1e-9*spec.Until {
		return o, fmt.Errorf("ended %s at clock %v (until %v) %s", status.Status, status.Report.Clock, spec.Until, status.Error)
	}
	nx, nv := spec.Params["nx"].(int), spec.Params["nv"].(int)
	o.cells = float64(nx*nv) * 3 * float64(status.Report.Steps)
	if traced {
		var tr struct {
			Spans []struct {
				Name string  `json:"name"`
				Dur  float64 `json:"duration_seconds"`
			} `json:"spans"`
		}
		if err := r.getJSON(base+"/trace", &tr); err != nil {
			return o, err
		}
		o.spans = map[string]float64{}
		for _, s := range tr.Spans {
			o.spans[s.Name] += s.Dur
		}
	}
	return o, nil
}

// tail reads a job's SSE stream to its done event, checking that every
// diagnostics value is a finite number (the service renders NaN and ±Inf
// as strings), and returns the number of gap events seen.
func (r *rig) tail(url string) (int, error) {
	resp, err := r.client.Get(url)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("diagnostics: %s", resp.Status)
	}
	gaps := 0
	typ := ""
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if v, ok := strings.CutPrefix(line, "event: "); ok {
			typ = v
			continue
		}
		data, ok := strings.CutPrefix(line, "data: ")
		if !ok {
			continue
		}
		switch typ {
		case "gap":
			gaps++
		case "diag":
			var d map[string]any
			if err := json.Unmarshal([]byte(data), &d); err != nil {
				return gaps, fmt.Errorf("diag event: %w", err)
			}
			for k, v := range d {
				if _, num := v.(float64); !num && k != "schema" {
					return gaps, fmt.Errorf("non-finite diagnostic %s = %v", k, v)
				}
			}
		case "done":
			return gaps, nil
		}
	}
	if err := sc.Err(); err != nil {
		return gaps, err
	}
	return gaps, fmt.Errorf("diagnostics stream ended without done")
}

func (r *rig) getJSON(url string, v any) error {
	resp, err := r.client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// scrape reads the /metrics exposition into name{labels} → value.
func (r *rig) scrape() (map[string]float64, error) {
	resp, err := r.client.Get(r.hs.URL + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, sc.Err()
}

// histP50 interpolates the median of a Prometheus histogram family.
func histP50(m map[string]float64, family string) float64 {
	type bucket struct{ le, cum float64 }
	var bs []bucket
	prefix := family + `_bucket{le="`
	for k, v := range m {
		if le, ok := strings.CutPrefix(k, prefix); ok {
			b, err := strconv.ParseFloat(strings.TrimSuffix(le, `"}`), 64)
			if err == nil {
				bs = append(bs, bucket{b, v})
			}
		}
	}
	total := m[family+"_count"]
	if total == 0 {
		return math.NaN()
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	lo, below := 0.0, 0.0
	for _, b := range bs {
		if b.cum >= total/2 {
			if math.IsInf(b.le, 1) || b.cum == below {
				return lo
			}
			return lo + (b.le-lo)*(total/2-below)/(b.cum-below)
		}
		lo, below = b.le, b.cum
	}
	return lo
}

// journalMonitor samples the journal size against completed jobs while a
// traced session runs; intervals in which online compaction shrank the
// journal are skipped.
type journalMonitor struct {
	stop  chan struct{}
	done  chan struct{}
	bytes float64
	jobs  float64
}

func (r *rig) monitorJournal() *journalMonitor {
	m := &journalMonitor{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(m.done)
		var prevB, prevJ float64
		first := true
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			if mm, err := r.scrape(); err == nil {
				b, j := mm["vlasovd_journal_bytes"], mm["vlasovd_jobs_completed_total"]
				if !first && b > prevB && j > prevJ {
					m.bytes += b - prevB
					m.jobs += j - prevJ
				}
				prevB, prevJ, first = b, j, false
			}
			select {
			case <-m.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return m
}

func (m *journalMonitor) finish() float64 {
	close(m.stop)
	<-m.done
	return m.bytes / m.jobs
}

// solverSet collects the traced solvers a traced catalog builds.
type solverSet struct {
	mu   sync.Mutex
	list []*tracedSolver
}

func (s *solverSet) add(ts *tracedSolver) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.list = append(s.list, ts)
}

// inside is the total time all collected solvers spent in solver calls.
func (s *solverSet) inside() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	var d time.Duration
	for _, ts := range s.list {
		d += ts.insideSolver()
	}
	return d
}

// tracedCatalog is the default catalog with the landau scenario's solver
// wrapped in a tracedSolver, so a traced session sees the time every
// served job spends inside solver calls.
func tracedCatalog(tr *tracer, set *solverSet) (*catalog.Catalog, error) {
	cat := catalog.New()
	for _, sc := range catalog.Default().Scenarios() {
		if sc.Name == "landau" {
			build := sc.Build
			sc.Build = func(v catalog.Values, workers int) (runner.Solver, error) {
				sv, err := build(v, workers)
				if err != nil {
					return nil, err
				}
				ts := &tracedSolver{benchSolver: sv.(benchSolver), tr: tr, run: tr.newRun(), name: "plasma.step"}
				set.add(ts)
				return ts.forRunner(), nil
			}
		}
		if err := cat.Register(sc); err != nil {
			return nil, err
		}
	}
	return cat, nil
}

// tracedSession boots a service with the traced catalog and runs the
// closed loop for d, reporting the service-side layers from the public
// trace and metrics endpoints.
func (p *prober) tracedSession(d time.Duration) (*loopStats, error) {
	var solvers solverSet
	cat, err := tracedCatalog(p.tr, &solvers)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(p.cfg.workDir, "svc-traced-")
	if err != nil {
		return nil, err
	}
	r, err := boot(dir, cat)
	if err != nil {
		return nil, err
	}
	defer r.close()
	jm := r.monitorJournal()
	st := r.closedLoop(p.cfg.sizes.jobs, p.cfg.seed, d, true)
	perJob := jm.finish()
	mm, err := r.scrape()
	if err != nil {
		return nil, err
	}
	p.countJobs(st)
	if len(st.jobs) == 0 {
		return st, nil // every job failed and is counted
	}
	pick := func(name string) []float64 {
		var xs []float64
		for _, o := range st.jobs {
			xs = append(xs, o.spans[name])
		}
		return xs
	}
	var run, lat, gaps float64
	for _, o := range st.jobs {
		run += o.spans["run"]
		lat += o.latency.Seconds()
		gaps += float64(o.gaps)
	}
	inside := solvers.inside()
	n := len(st.jobs)
	p.set("sched.queue_wait_p50_ms", 1e3*median(pick("queue")), "ms", n)
	p.set("sched.dispatch_p50_ms", 1e3*median(pick("dispatch")), "ms", n)
	p.set("serve.admission_p50_ms", 1e3*median(pick("admission")), "ms", n)
	// The share of submit-to-done latency spent inside the solver; the
	// rest is the control plane and the runner's hooks.
	p.set("serve.run_share", inside.Seconds()/lat, "1", n)
	p.set("serve.sse_gaps", gaps, "count", n)
	p.set("store.journal_bytes_per_job", perJob, "B", n)
	p.set("store.checkpoint_write_p50_ms", 1e3*histP50(mm, "vlasovd_checkpoint_write_seconds"),
		"ms", int(mm["vlasovd_checkpoint_write_seconds_count"]))
	p.set("runner.overhead_share", 1-inside.Seconds()/run, "1", n)
	steps := p.tr.durations("plasma.step")
	p.set("plasma.step_us", 1e6*median(steps), "us", len(steps))
	return st, p.catalogLayer(jobSpecs(p.cfg.sizes.jobs))
}

// shapeLatency is the mean over the job shapes of each shape's median
// submit-to-done latency. The shapes' solve times differ threefold, so the
// median of the pooled latencies falls between their clusters and moves
// with whichever shapes happened to run side by side; a per-shape median
// weights every shape equally whatever the mix.
func shapeLatency(jobs []outcome) float64 {
	byShape := map[int][]float64{}
	for _, o := range jobs {
		byShape[o.shape] = append(byShape[o.shape], o.latency.Seconds())
	}
	t := 0.0
	for _, lat := range byShape {
		t += median(lat)
	}
	return t / float64(len(byShape))
}

// countJobs charges a session's jobs to the run's attempted and failed.
func (p *prober) countJobs(st *loopStats) {
	p.res.Attempted += st.attempted
	for _, f := range st.failures {
		p.res.fail("%s", f)
	}
}

// serviceComplement gives a solver workload the service-side layers: a
// short traced closed-loop session.
func (p *prober) serviceComplement() error {
	_, err := p.tracedSession(p.cfg.sizes.serviceProbe)
	return err
}

// runService is the service_jobs workload.
func runService(cfg config, res *result) error {
	// Set-up is a server boot over the workload's store: open (and replay)
	// the journal, index and audit log, start the scheduler, answer healthz.
	dir := filepath.Join(cfg.workDir, "svc")
	var setups []float64
	var r *rig
	for i := 0; i < cfg.sizes.minSetups; i++ {
		if r != nil {
			r.close()
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if r, err = boot(dir, catalog.Default()); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	d := cfg.seconds
	if cfg.trace {
		d /= 2
	}
	st := r.closedLoop(cfg.sizes.jobs, cfg.seed, d, false)
	r.close()
	p := &prober{cfg: cfg, res: res, tr: &tracer{}}
	p.countJobs(st)
	if len(st.jobs) == 0 {
		return nil // every job failed and is counted; nothing to time
	}
	var lat, sub []float64
	cells := 0.0
	for _, o := range st.jobs {
		lat = append(lat, o.latency.Seconds())
		sub = append(sub, o.submit.Seconds())
		cells += o.cells
	}
	put := res.set
	if cfg.trace {
		put = res.info
	}
	n := len(st.jobs)
	put("setup_s", median(setups), "s", len(setups))
	put("time_to_solution_s", shapeLatency(st.jobs), "s", n)
	res.info("cpu_s_per_solution", st.cpu/float64(st.attempted), "s", st.attempted)
	res.info("cell_updates_per_s", cells/st.wall.Seconds(), "1/s", n)
	put("retained_heap_mb", st.heap/(1<<20), "MB", 1)
	res.info("jobs_per_s", float64(n)/st.wall.Seconds(), "1/s", n)
	res.info("job_latency_p50_ms", 1e3*median(lat), "ms", n)
	res.info("job_latency_p95_ms", 1e3*quantile(lat, 0.95), "ms", n)
	res.info("job_latency_p99_ms", 1e3*quantile(lat, 0.99), "ms", n)
	res.info("submit_latency_p50_ms", 1e3*median(sub), "ms", n)
	res.info("error_rate", float64(res.Failed)/float64(res.Attempted), "1", res.Attempted)
	if !cfg.trace {
		return nil
	}
	tst, err := p.tracedSession(d)
	if err != nil {
		return err
	}
	tts := shapeLatency(st.jobs)
	res.set("trace.overhead_rel", (shapeLatency(tst.jobs)-tts)/tts, "1", len(tst.jobs)+n)
	if err := p.hybridComplement(); err != nil {
		return err
	}
	if err := p.plasmaComplement(); err != nil {
		return err
	}
	return p.finish()
}
