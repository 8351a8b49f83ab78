package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"vlasov6d/internal/hybrid"
	"vlasov6d/internal/plasma"
	"vlasov6d/internal/runner"
)

// toySizes shrinks every workload so the whole benchmark runs in seconds.
func toySizes() sizes {
	return sizes{
		vlasov:       hybridSize{NGrid: 6, NU: 6, NPart: 4, AEnd: 0.095, CkptEvery: 1, Workers: 1},
		treepm:       hybridSize{NGrid: 6, NU: 6, NPart: 6, AEnd: 0.095, CkptEvery: 1, Workers: nproc()},
		landau:       landauSize{NX: 32, NV: 64, Until: 25, Workers: 1},
		jobs:         jobsSize{NX: []int{16}, NV: []int{32}, Until: 1, HeapJobs: 5},
		probe:        5 * time.Millisecond,
		serviceProbe: 300 * time.Millisecond,
		minSetups:    2,
	}
}

type benchFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// TestEveryWorkloadEmitsItsMetrics runs every workload BENCHMARK.json
// names once at toy sizes, untraced and traced, and checks that each run
// passes its gates and emits every listed metric with its unit.
func TestEveryWorkloadEmitsItsMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(bf.Workloads), len(workloads))
	}
	out := t.TempDir()
	for _, w := range bf.Workloads {
		for _, traced := range []bool{false, true} {
			want := bf.EndToEnd
			if traced {
				want = bf.PerLayer
			}
			cfg := config{workload: w.Name, seed: 3, seconds: time.Second, trace: traced, root: "..", sizes: toySizes()}
			res, err := runWorkload(cfg, out)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !res.correct() {
				t.Errorf("%s traced=%v: gates failed: %v", w.Name, traced, res.Failures)
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s missing", w.Name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s traced=%v: metric %s unit %q, BENCHMARK.json says %q", w.Name, traced, m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s traced=%v: metric %s = %v", w.Name, traced, m.Name, got.Value)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics emitted, BENCHMARK.json lists %d", w.Name, traced, len(res.Metrics), len(want))
			}
			if !traced && res.Metrics["time_to_solution_s"].Value <= 0 {
				t.Errorf("%s: time_to_solution_s = %v", w.Name, res.Metrics["time_to_solution_s"].Value)
			}
		}
	}
}

// TestResultLine pins the last line of a run: exactly correct, attempted,
// failed and metrics, each metric a value and a unit.
func TestResultLine(t *testing.T) {
	res := newResult("x", 1, false)
	res.Attempted = 2
	res.fail("boom")
	res.set("setup_s", 0.5, "s", 3)
	var buf bytes.Buffer
	if err := emit(&buf, res); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var line map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatal(err)
	}
	if len(line) != 4 || string(line["correct"]) != "false" || string(line["attempted"]) != "2" || string(line["failed"]) != "1" {
		t.Fatalf("result line %s", lines[len(lines)-1])
	}
	if got := string(line["metrics"]); got != `{"setup_s":{"unit":"s","value":0.5}}` {
		t.Fatalf("metrics %s", got)
	}
}

// TestShapeLatencyWeighsShapesEqually pins the service time to solution:
// a shape served more often does not pull it toward its own latency.
func TestShapeLatencyWeighsShapesEqually(t *testing.T) {
	ms := func(shape int, d float64) outcome {
		return outcome{shape: shape, latency: time.Duration(d * float64(time.Millisecond))}
	}
	jobs := []outcome{ms(0, 10), ms(0, 10), ms(0, 10), ms(0, 50), ms(1, 30), ms(1, 40), ms(1, 30)}
	if got := shapeLatency(jobs); math.Abs(got-0.020) > 1e-12 {
		t.Fatalf("shapeLatency = %v, want 0.020 (mean of 10 ms and 30 ms)", got)
	}
}

// TestGatesTrip feeds deliberately wrong physics to the correctness gates.
func TestGatesTrip(t *testing.T) {
	theory := plasma.LandauDampingRate(landauK, 1)
	if _, err := landauGate(theory*1.01, 5); err != nil {
		t.Fatalf("1%% off γ rejected: %v", err)
	}
	if _, err := landauGate(theory*1.2, 5); err == nil {
		t.Fatal("γ 20% off theory passed the gate")
	}
	if _, err := landauGate(theory, 2); err == nil {
		t.Fatal("a two-peak fit passed the gate")
	}

	// A real toy hybrid run passes; the same state with mass added after
	// the run, or a negative cell, fails.
	sz := toySizes().vlasov
	c, err := hybridCase(sz, 1)
	if err != nil {
		t.Fatal(err)
	}
	sv, err := c.build()
	if err != nil {
		t.Fatal(err)
	}
	m0 := c.start(sv)
	rep, err := runner.Run(t.Context(), sv, sz.AEnd)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.gate(sv, rep, m0); err != nil {
		t.Fatalf("clean run rejected: %v", err)
	}
	sim := sv.(*hybrid.Simulation)
	sim.Grid.Scale(1.001)
	if _, err := c.gate(sv, rep, m0); err == nil {
		t.Fatal("0.1% mass gain passed the gate")
	}
	sim.Grid.Scale(1 / 1.001)
	sim.Grid.Data[7] = -1e-6
	if _, err := c.gate(sv, rep, m0); err == nil {
		t.Fatal("negative f passed the gate")
	}
	short := *rep
	short.Reason = runner.ReasonMaxSteps
	sim.Grid.Data[7] = 0
	if _, err := c.gate(sv, &short, m0); err == nil {
		t.Fatal("a run that stopped short passed the gate")
	}
}

// TestCompareRefusesOtherHosts checks that reports from differing host
// fingerprints are not compared.
func TestCompareRefusesOtherHosts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, nprocs int) string {
		r := newResult("hybrid_vlasov", 1, false)
		r.Host = fingerprint{CPU: "cpu", NProc: nprocs, GOMAXPROCS: nprocs, Go: "go1.24.0"}
		r.set("time_to_solution_s", 3, "s", 5)
		p := filepath.Join(dir, name)
		if err := writeJSONFile(p, r); err != nil {
			t.Fatal(err)
		}
		return p
	}
	a, b, c := write("a.json", 2), write("b.json", 2), write("c.json", 1)
	var buf bytes.Buffer
	if code := compareMain([]string{a, b}, &buf); code != 0 {
		t.Fatalf("same host: exit %d", code)
	}
	if code := compareMain([]string{a, c}, &buf); code != 3 {
		t.Fatalf("differing nproc: exit %d, want refusal", code)
	}
}

// TestTriadReference checks both sides of the memory-fit rule: a host
// whose arrays fit gets a bandwidth and a roofline fraction, one whose
// arrays do not gets a note and no ratio.
func TestTriadReference(t *testing.T) {
	cfg := config{sizes: toySizes()}
	fits := &prober{cfg: cfg, res: newResult("x", 1, true)}
	fits.res.set("vlasov.drift_ns_per_cell_sweep", 80, "ns", 5)
	fits.triadReference(1<<20, 1<<30)
	if fits.res.Info["host.triad_gb_s"].Value <= 0 || fits.res.Info["vlasov.roofline_fraction"].Value <= 0 {
		t.Fatalf("fitting triad reported %v", fits.res.Info)
	}
	skip := &prober{cfg: cfg, res: newResult("x", 1, true)}
	skip.triadReference(300<<20, 8<<30)
	if _, ok := skip.res.Info["host.triad_gb_s"]; ok || len(skip.res.Notes) != 1 {
		t.Fatalf("oversized triad: info %v notes %v", skip.res.Info, skip.res.Notes)
	}
}
