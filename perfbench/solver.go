package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	"vlasov6d/internal/analysis"
	"vlasov6d/internal/catalog"
	"vlasov6d/internal/hybrid"
	"vlasov6d/internal/plasma"
	"vlasov6d/internal/runner"
)

// Workload sizes. The full sizes were chosen on a 2-CPU host so that one
// repetition takes a few seconds; tests substitute toy sizes.
type hybridSize struct {
	NGrid, NU, NPart int
	AEnd             float64 // target scale factor (start: the catalog's a = 1/11)
	CkptEvery        int     // checkpoint cadence in steps (0 = none)
	Workers          int     // solver workers
}

type landauSize struct {
	NX, NV  int
	Until   float64
	Workers int // sweep workers
}

type jobsSize struct {
	NX, NV   []int   // per-job grid choices, drawn from the seed
	Until    float64 // plasma time each served job runs to
	HeapJobs int     // jobs over which the service's peak heap is taken
}

type sizes struct {
	vlasov, treepm hybridSize
	landau         landauSize
	jobs           jobsSize
	probe          time.Duration // time budget of one layer probe
	serviceProbe   time.Duration // traced service session of a solver workload
	minSetups      int           // set-up samples per run, at least
}

// Worker counts: on a shared 2-CPU host a run on nproc workers waits at
// every sweep's join for whichever CPU the host took away last, so its wall
// time measures the neighbours more than the solver. A 25% duty-cycle load
// on both CPUs slowed the 2-worker Landau run by 73% and the 1-worker run
// by 13%; over ten seeds the 2-worker hybrid_vlasov wall time spread 13%
// while its CPU time spread 4%. The kernel-first workloads (hybrid_vlasov,
// landau_accuracy) therefore run on one worker; hybrid_treepm and the
// service keep nproc, so parallel dispatch stays on the end-to-end path,
// and the traced run measures the scaling itself (*.parallel_efficiency).
func fullSizes() sizes {
	return sizes{
		vlasov:       hybridSize{NGrid: 8, NU: 8, NPart: 8, AEnd: 0.12, CkptEvery: 5, Workers: 1},
		treepm:       hybridSize{NGrid: 8, NU: 6, NPart: 16, AEnd: 0.12, CkptEvery: 5, Workers: nproc()},
		landau:       landauSize{NX: 64, NV: 128, Until: 25, Workers: 1},
		jobs:         jobsSize{NX: []int{16, 24, 32}, NV: []int{32, 48}, Until: 2, HeapJobs: 400},
		probe:        150 * time.Millisecond,
		serviceProbe: 2 * time.Second,
		minSetups:    41,
	}
}

// Physics of the Landau problem: k·λ_D = 0.5, α = 0.01, v ∈ [−8, 8).
const (
	landauK     = 0.5
	landauAlpha = 0.01
	landauVMax  = 8.0
)

// Correctness tolerances: the repository's own test bounds, never looser.
const (
	hybridMassTol = 1e-4 // hybrid TestStepConservesMass, counting boundary loss
	plasmaMassTol = 1e-8 // plasma TestMassConservation
	gammaTol      = 0.15 // golden Landau test
	minPeaks      = 3    // golden Landau test
)

// solverCase is one solver workload: how to build it from the seed, what
// it runs to, and the gate its final state must pass.
type solverCase struct {
	until  float64
	sweeps int // directional sweeps per step
	build  func() (benchSolver, error)
	cells  func(benchSolver) int
	opts   func(dir string) []runner.Option
	// start captures what the gate compares against; gate checks the
	// final state and returns its accuracy figures.
	start func(benchSolver) float64
	gate  func(sv benchSolver, rep *runner.Report, m0 float64) (map[string]float64, error)
}

// hybridSpec is the catalog job spec of a hybrid workload.
func hybridSpec(sz hybridSize, seed int64) catalog.JobSpec {
	return catalog.JobSpec{
		Scenario: "hybrid",
		Params: map[string]any{
			"ngrid": sz.NGrid, "nu": sz.NU, "npartside": sz.NPart, "seed": seed,
		},
		Until: sz.AEnd,
	}
}

func hybridCase(sz hybridSize, seed int64) (solverCase, error) {
	cat := catalog.Default()
	vals, sc, err := cat.Validate(hybridSpec(sz, seed))
	if err != nil {
		return solverCase{}, err
	}
	c := solverCase{
		until:  sz.AEnd,
		sweeps: 9, // two half-kicks and one drift, three axes each
		build: func() (benchSolver, error) {
			sv, err := sc.Build(vals, sz.Workers)
			if err != nil {
				return nil, err
			}
			return sv.(*hybrid.Simulation), nil
		},
		cells: func(sv benchSolver) int {
			g := sv.(*hybrid.Simulation).Grid
			return g.NCells() * g.NCube()
		},
		opts: func(dir string) []runner.Option {
			if sz.CkptEvery == 0 {
				return nil
			}
			// As cmd/vlasov6d: snapshots captured on the step path and
			// written by the async pipeline.
			return []runner.Option{
				runner.WithCheckpoint(dir, sz.CkptEvery),
				runner.WithCheckpointKeep(2),
				runner.WithAsyncObserver(nil),
			}
		},
		start: func(sv benchSolver) float64 {
			nu, _ := sv.(*hybrid.Simulation).TotalMass()
			return nu
		},
		gate: func(sv benchSolver, rep *runner.Report, nu0 float64) (map[string]float64, error) {
			sim := sv.(*hybrid.Simulation)
			nu, _ := sim.TotalMass()
			drift := math.Abs(nu+sim.VSol.BoundaryLoss-nu0) / nu0
			out := map[string]float64{"mass_drift_rel": drift, "min_f": float64(sim.Grid.MinValue())}
			return out, checkFinal(rep, sz.AEnd, drift, hybridMassTol, out["min_f"])
		},
	}
	return c, nil
}

// checkFinal is the gate every solver workload shares: the run reached its
// target clock, mass is conserved counting boundary loss, and f ≥ 0.
func checkFinal(rep *runner.Report, until, drift, tol, minF float64) error {
	if rep.Reason != runner.ReasonUntil || math.Abs(rep.Clock-until) > 1e-9*math.Abs(until) {
		return fmt.Errorf("stopped at clock %v (%v), target %v", rep.Clock, rep.Reason, until)
	}
	if !(drift <= tol) {
		return fmt.Errorf("relative mass drift %.3g exceeds %.0e", drift, tol)
	}
	if !(minF >= 0) {
		return fmt.Errorf("min f = %g < 0", minF)
	}
	return nil
}

// newLandau builds the Landau problem with a seeded perturbation phase:
// every seed is the same physics translated in x.
func newLandau(sz landauSize, seed int64, workers int) (*plasma.Solver, error) {
	s, err := plasma.NewWithScheme(sz.NX, sz.NV, 2*math.Pi/landauK, landauVMax, "slmpp5")
	if err != nil {
		return nil, err
	}
	x0 := rand.New(rand.NewSource(seed)).Float64() * s.L
	norm := 1 / math.Sqrt(2*math.Pi)
	s.Fill(func(x, v float64) float64 {
		return (1 + landauAlpha*math.Cos(landauK*(x-x0))) * norm * math.Exp(-v*v/2)
	})
	s.SetWorkers(workers)
	return s, nil
}

// landauGate checks the fitted damping rate against kinetic theory.
func landauGate(gamma float64, peaks int) (float64, error) {
	theory := plasma.LandauDampingRate(landauK, 1)
	rel := math.Abs(gamma-theory) / math.Abs(theory)
	if peaks < minPeaks {
		return rel, fmt.Errorf("only %d field-energy peaks, need %d", peaks, minPeaks)
	}
	if !(rel <= gammaTol) {
		return rel, fmt.Errorf("fitted γ = %.5f, theory %.5f (rel err %.3g > %.2f)", gamma, theory, rel, gammaTol)
	}
	return rel, nil
}

func landauCase(sz landauSize, seed int64) solverCase {
	var fit *analysis.DecayFit
	return solverCase{
		until:  sz.Until,
		sweeps: 3, // half-kick, drift, half-kick
		build: func() (benchSolver, error) {
			return newLandau(sz, seed, sz.Workers)
		},
		cells: func(sv benchSolver) int { s := sv.(*plasma.Solver); return s.NX * s.NV },
		opts: func(string) []runner.Option {
			fit = &analysis.DecayFit{}
			f := fit
			return []runner.Option{runner.WithObserver(func(_ int, sv runner.Solver) error {
				d := sv.Diagnostics()
				f.Add(d.Time, d.Extra["field_energy"])
				return nil
			})}
		},
		start: func(sv benchSolver) float64 { return sv.(*plasma.Solver).TotalMass() },
		gate: func(sv benchSolver, rep *runner.Report, m0 float64) (map[string]float64, error) {
			s := sv.(*plasma.Solver)
			drift := math.Abs(s.TotalMass()-m0) / m0
			minF := math.Inf(1)
			for _, v := range s.F {
				minF = math.Min(minF, v)
			}
			rel, gerr := landauGate(fit.Gamma(), fit.Peaks())
			out := map[string]float64{"mass_drift_rel": drift, "min_f": minF, "gamma_rel_err": rel}
			if err := checkFinal(rep, sz.Until, drift, plasmaMassTol, minF); err != nil {
				return out, err
			}
			return out, gerr
		},
	}
}

// rep is one measured repetition of a solver workload.
type rep struct {
	setup, run time.Duration
	cpu        float64 // process CPU seconds spent in the run
	cells      float64 // phase-space cell updates
	heap       float64 // retained heap, bytes
	acc        map[string]float64
}

// cpuSeconds is the user plus system CPU time the process has used. A
// hypervisor that takes the CPUs away from the machine stretches wall time
// but not this, so it is recorded beside the wall-clock figure.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// liveHeap collects garbage and returns the bytes still reachable: the
// heap the workload retains at this point, independent of when
// collections happen to run.
func liveHeap() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64())
}

// runRep builds the workload, runs it to its target and gates the result.
// With a tracer the solver is wrapped and every call timed.
func runRep(c solverCase, dir string, tr *tracer, name string) (rep, benchSolver, *tracedSolver, error) {
	var r rep
	if err := os.RemoveAll(dir); err != nil {
		return r, nil, nil, err
	}
	runtime.GC()
	t0 := time.Now()
	sv, err := c.build()
	r.setup = time.Since(t0)
	if err != nil {
		return r, nil, nil, fmt.Errorf("build: %w", err)
	}
	m0 := c.start(sv)
	opts := c.opts(dir)
	var target runner.Solver = sv
	var ts *tracedSolver
	var runSpan int
	if tr != nil {
		run := tr.newRun()
		runSpan = tr.begin(run, 0, "runner.run")
		ts = &tracedSolver{benchSolver: sv, tr: tr, run: run, parent: runSpan, name: name}
		if sim, ok := sv.(*hybrid.Simulation); ok {
			ts.child = hybridChildren(tr, run, sim)
		}
		target = ts.forRunner()
		opts = append(opts, runner.WithCheckpointTimer(func(_ float64, d time.Duration) {
			tr.add(run, runSpan, "runner.checkpoint_write", time.Now().Add(-d), d)
		}))
	}
	r.heap = liveHeap()
	cpu0 := cpuSeconds()
	report, err := runner.Run(context.Background(), target, c.until, opts...)
	r.cpu = cpuSeconds() - cpu0
	tr.end(runSpan)
	if err != nil {
		return r, sv, ts, fmt.Errorf("run: %w", err)
	}
	r.run = report.Wall
	r.cells = float64(c.cells(sv)) * float64(c.sweeps) * float64(report.Steps)
	r.acc, err = c.gate(sv, report, m0)
	r.heap = math.Max(r.heap, liveHeap())
	return r, sv, ts, err
}

// hybridChildren returns the child-span recorder of a hybrid step: the
// per-part wall time the simulation accounts in its public Tim (the
// paper's Fig. 7 split) becomes child spans of the step, so the step's
// self time is what the hybrid layer spends outside its parts. PM time
// includes the neutrino moments; the PM child excludes them.
func hybridChildren(tr *tracer, run int, sim *hybrid.Simulation) func(int, time.Time) {
	prev := sim.Tim
	return func(stepSpan int, start time.Time) {
		cur := sim.Tim
		tr.add(run, stepSpan, "vlasov.sweeps", start, cur.Vlasov-prev.Vlasov)
		tr.add(run, stepSpan, "pm.forces", start, (cur.PM-prev.PM)-(cur.Moments-prev.Moments))
		tr.add(run, stepSpan, "phase.moments", start, cur.Moments-prev.Moments)
		tr.add(run, stepSpan, "tree.forces", start, cur.Tree-prev.Tree)
		prev = cur
	}
}

// solverRun is the measured loop shared by the three solver workloads.
type solverRun struct {
	cfg  config
	res  *result
	c    solverCase
	step string // span name of one solver step
	dir  string
	// filled by measure
	reps          []rep
	traced        []rep
	last          benchSolver
	tracedSolvers []*tracedSolver
	tr            *tracer
}

// measure repeats the workload until the run's time is spent. A traced run
// alternates untraced and traced repetitions, so the tracing overhead is
// measured in the same run.
func (s *solverRun) measure() error {
	if s.cfg.trace {
		s.tr = &tracer{}
	}
	var setups []float64
	// A repetition starts only while at least half of it fits in the run.
	deadline := time.Now().Add(s.cfg.seconds)
	var last time.Duration
	// A traced run makes at least one traced repetition (the odd ones).
	for i := 0; i == 0 || time.Now().Add(last/2).Before(deadline) || (s.cfg.trace && i < 2); i++ {
		t0 := time.Now()
		var tr *tracer
		if s.cfg.trace && i%2 == 1 {
			tr = s.tr
		}
		s.res.Attempted++
		s.last = nil // let the previous repetition's state be collected
		r, sv, ts, err := runRep(s.c, s.dir, tr, s.step)
		last = time.Since(t0)
		setups = append(setups, r.setup.Seconds())
		if err != nil {
			s.res.fail("%s rep %d: %v", s.cfg.workload, i, err)
			continue
		}
		s.last = sv
		if tr != nil {
			s.traced = append(s.traced, r)
			s.tracedSolvers = append(s.tracedSolvers, ts)
		} else {
			s.reps = append(s.reps, r)
		}
	}
	for len(setups) < s.cfg.sizes.minSetups {
		runtime.GC()
		t0 := time.Now()
		if _, err := s.c.build(); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	if len(s.reps) == 0 {
		return nil // every repetition failed and is counted; nothing to time
	}
	var tts, cpu, rate, heap []float64
	accs := map[string][]float64{}
	for _, r := range s.reps {
		tts = append(tts, r.run.Seconds())
		cpu = append(cpu, r.cpu)
		rate = append(rate, r.cells/r.run.Seconds())
		heap = append(heap, r.heap/(1<<20))
		for k, v := range r.acc {
			accs[k] = append(accs[k], v)
		}
	}
	put := s.res.set
	if s.cfg.trace {
		put = s.res.info
	}
	put("setup_s", median(setups), "s", len(setups))
	put("time_to_solution_s", median(tts), "s", len(tts))
	s.res.info("cpu_s_per_solution", median(cpu), "s", len(cpu))
	s.res.info("cell_updates_per_s", median(rate), "1/s", len(rate))
	put("retained_heap_mb", median(heap), "MB", len(heap))
	for k, v := range accs {
		if k == "min_f" {
			s.res.info(k, quantile(v, 0), "1", len(v))
			continue
		}
		s.res.info(k, quantile(v, 1), "1", len(v))
	}
	s.res.info("error_rate", float64(s.res.Failed)/float64(s.res.Attempted), "1", s.res.Attempted)
	return nil
}

func runHybridVlasov(cfg config, res *result) error {
	return runHybrid(cfg, res, cfg.sizes.vlasov)
}

func runHybridTreePM(cfg config, res *result) error {
	return runHybrid(cfg, res, cfg.sizes.treepm)
}

func runHybrid(cfg config, res *result, sz hybridSize) error {
	c, err := hybridCase(sz, cfg.seed)
	if err != nil {
		return err
	}
	s := &solverRun{cfg: cfg, res: res, c: c, step: "hybrid.step", dir: filepath.Join(cfg.workDir, "ckpt")}
	if err := s.measure(); err != nil {
		return err
	}
	if !cfg.trace {
		return nil
	}
	sim, ok := s.last.(*hybrid.Simulation)
	if !ok {
		return nil // no repetition passed: the run is already failed
	}
	s.reportTraced()
	p := &prober{cfg: cfg, res: res, tr: s.tr}
	if err := p.hybridLayers(sim, hybridSpec(sz, cfg.seed)); err != nil {
		return err
	}
	if err := p.hybridScaling(c); err != nil {
		return err
	}
	// Layers this workload does not drive are probed at their standard
	// shapes, so every traced run reports the full layer table.
	if err := p.plasmaComplement(); err != nil {
		return err
	}
	if err := p.serviceComplement(); err != nil {
		return err
	}
	return p.finish()
}

func runLandau(cfg config, res *result) error {
	c := landauCase(cfg.sizes.landau, cfg.seed)
	s := &solverRun{cfg: cfg, res: res, c: c, step: "plasma.step", dir: filepath.Join(cfg.workDir, "ckpt")}
	if err := s.measure(); err != nil {
		return err
	}
	if !cfg.trace {
		return nil
	}
	sv, ok := s.last.(*plasma.Solver)
	if !ok {
		return nil // no repetition passed: the run is already failed
	}
	s.reportTraced()
	p := &prober{cfg: cfg, res: res, tr: s.tr}
	if err := p.plasmaLayers(sv); err != nil {
		return err
	}
	if err := p.hybridComplement(); err != nil {
		return err
	}
	if err := p.serviceComplement(); err != nil {
		return err
	}
	return p.finish()
}

// reportTraced turns the traced repetitions into the runner- and
// step-level layer metrics, and reports the tracing overhead.
func (s *solverRun) reportTraced() {
	res, tr := s.res, s.tr
	if len(s.traced) == 0 {
		return
	}
	var untr, trd, over []float64
	for _, r := range s.reps {
		untr = append(untr, r.run.Seconds())
	}
	for i, r := range s.traced {
		trd = append(trd, r.run.Seconds())
		over = append(over, (r.run-s.tracedSolvers[i].insideSolver()).Seconds()/r.run.Seconds())
	}
	res.set("trace.overhead_rel", (median(trd)-median(untr))/median(untr), "1", len(trd)+len(untr))
	res.info("trace.time_to_solution_traced_s", median(trd), "s", len(trd))
	res.set("runner.overhead_share", median(over), "1", len(over))
	if ck := tr.durations("runner.checkpoint_write"); len(ck) > 0 {
		res.set("runner.checkpoint_write_ms", 1e3*median(ck), "ms", len(ck))
	}
	steps := tr.durations(s.step)
	switch s.step {
	case "plasma.step":
		res.set("plasma.step_us", 1e6*median(steps), "us", len(steps))
	case "hybrid.step":
		reportHybridSteps(res, tr)
	}
}

// reportHybridSteps reports the hybrid step, its self time, SuggestDT and
// the Fig. 7 split from traced hybrid steps.
func reportHybridSteps(res *result, tr *tracer) {
	steps := tr.durations("hybrid.step")
	self := tr.selfTimes("hybrid.step")
	res.set("hybrid.step_ms", 1e3*median(steps), "ms", len(steps))
	res.set("hybrid.step_self_ms", 1e3*median(self), "ms", len(self))
	sd := tr.durations("hybrid.step.suggest_dt")
	res.set("hybrid.suggest_dt_ms", 1e3*median(sd), "ms", len(sd))
	total := sum(steps)
	for name, span := range map[string]string{
		"vlasov": "vlasov.sweeps", "pm": "pm.forces", "tree": "tree.forces", "moments": "phase.moments",
	} {
		res.set("hybrid.share."+name, tr.total(span).Seconds()/total, "1", len(steps))
	}
}
