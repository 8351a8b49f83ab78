// Command perfbench is the repository benchmark: time-to-solution of the
// production solver and service paths on four workloads, with a separate
// traced run that times every layer from the benchmark's own code.
//
//	bash perfbench/run.sh --workload hybrid_vlasov --seed 1 --seconds 25 --trace 0
//	bash perfbench/run.sh compare old.json new.json
//
// --workload all runs the four workloads in turn in one process. A run
// builds its inputs from --seed, repeats the workload until --seconds
// have elapsed, checks every repetition's physics, prints each metric with
// its unit and sample count, writes a report (with the host fingerprint)
// under .bench_out/, and ends with one JSON line:
//
//	{"correct": true, "attempted": 6, "failed": 0, "metrics": {...}}
//
// --trace 0 reports the end-to-end metrics BENCHMARK.json lists under
// end_to_end; --trace 1 reports the per-layer metrics listed under
// per_layer. The workloads drive the production path — catalog → hybrid or
// plasma → vlasov → advect, and serve → sched → runner → store — never
// internal/kernel.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// metric is one reported number. Samples is how many measurements the value
// summarises (1 for a computed constant).
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
}

// result is what one run produced. A failed unit (a run error or a tripped
// correctness gate) counts in failed and its timing is discarded.
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Traced    bool              `json:"traced"`
	Host      fingerprint       `json:"host"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Failures  []string          `json:"failures,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
	// Info holds the numbers that are printed and recorded but are not
	// gated metrics of this mode (physics accuracy, latency tails, the
	// end-to-end figures of a traced run).
	Info  map[string]metric `json:"info"`
	Notes []string          `json:"notes,omitempty"`
}

func newResult(workload string, seed int64, traced bool) *result {
	return &result{
		Workload: workload, Seed: seed, Traced: traced,
		Metrics: map[string]metric{}, Info: map[string]metric{},
	}
}

// set records a metric of this run's mode. A value that could not be
// measured (no samples) fails the run instead of emitting a non-number.
func (r *result) set(name string, v float64, unit string, n int) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.fail("metric %s not measured (%v from %d samples)", name, v, n)
		return
	}
	r.Metrics[name] = metric{Value: v, Unit: unit, Samples: n}
}

func (r *result) info(name string, v float64, unit string, n int) {
	if !math.IsNaN(v) && !math.IsInf(v, 0) {
		r.Info[name] = metric{Value: v, Unit: unit, Samples: n}
	}
}

func (r *result) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// fail records a failed unit of work.
func (r *result) fail(format string, args ...any) {
	r.Failed++
	r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
}

// correct reports whether every attempted unit passed its gate.
func (r *result) correct() bool { return r.Attempted > 0 && r.Failed == 0 }

// config is one invocation. sizes is fixed by main; tests shrink it.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	root     string // repository root, for the source fingerprint
	workDir  string // scratch for checkpoints and the service store
	sizes    sizes
}

// workloads maps each name to its runner, in BENCHMARK.json order.
var workloads = []struct {
	name string
	run  func(cfg config, res *result) error
}{
	{"hybrid_vlasov", runHybridVlasov},
	{"hybrid_treepm", runHybridTreePM},
	{"landau_accuracy", runLandau},
	{"service_jobs", runService},
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	var (
		workload = flag.String("workload", "", `workload name, or "all" to run every workload in turn`)
		seed     = flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds  = flag.Int("seconds", 25, "measured duration of the run")
		trace    = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	)
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be ≥ 1 and --trace 0 or 1")
		os.Exit(2)
	}
	cfg := config{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		trace:    *trace == 1,
		root:     ".",
		sizes:    fullSizes(),
	}
	names := []string{cfg.workload}
	if cfg.workload == "all" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	for _, name := range names {
		cfg.workload = name
		res, err := runWorkload(cfg, ".bench_out")
		if err == nil {
			err = emit(os.Stdout, res)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
	}
}

// runWorkload runs one workload with a fresh scratch directory under
// outDir, removed afterwards, and writes the run's report into outDir.
func runWorkload(cfg config, outDir string) (*result, error) {
	var run func(config, *result) error
	for _, w := range workloads {
		if w.name == cfg.workload {
			run = w.run
		}
	}
	if run == nil {
		names := make([]string, len(workloads))
		for i, w := range workloads {
			names[i] = w.name
		}
		return nil, fmt.Errorf("unknown workload %q (have %v)", cfg.workload, names)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(outDir, "work-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	cfg.workDir = work

	res := newResult(cfg.workload, cfg.seed, cfg.trace)
	res.Host = hostFingerprint(cfg.root)
	if err := run(cfg, res); err != nil {
		return nil, err
	}
	mode := "e2e"
	if cfg.trace {
		mode = "trace"
	}
	path := filepath.Join(outDir, fmt.Sprintf("%s-%s-seed%d.json", cfg.workload, mode, cfg.seed))
	if err := writeJSONFile(path, res); err != nil {
		return nil, err
	}
	return res, nil
}

// emit prints the human-readable report and then the result line the
// benchmark contract reads: exactly correct, attempted, failed, metrics.
func emit(w io.Writer, res *result) error {
	fmt.Fprintf(w, "host: %s\n", res.Host)
	fmt.Fprintf(w, "workload %s seed %d traced %v: attempted %d failed %d\n",
		res.Workload, res.Seed, res.Traced, res.Attempted, res.Failed)
	for _, f := range res.Failures {
		fmt.Fprintf(w, "FAILED: %s\n", f)
	}
	for _, n := range res.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	printMetrics(w, "metric", res.Metrics)
	printMetrics(w, "info", res.Info)
	out := map[string]any{}
	for name, m := range res.Metrics {
		out[name] = map[string]any{"value": m.Value, "unit": m.Unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct":   res.correct(),
		"attempted": res.Attempted,
		"failed":    res.Failed,
		"metrics":   out,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func printMetrics(w io.Writer, kind string, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := ms[n]
		fmt.Fprintf(w, "%s %-36s %14.6g %-8s (n=%d)\n", kind, n, m.Value, m.Unit, m.Samples)
	}
}

func writeJSONFile(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// nproc is the worker and client-connection cap of every workload.
func nproc() int { return runtime.NumCPU() }
