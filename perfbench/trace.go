package main

import (
	"encoding/json"
	"io"
	"os"
	"sync"
	"time"

	"vlasov6d/internal/runner"
)

// span is one timed call across a layer boundary, recorded by the
// benchmark around the call it makes. Spans of one unit of work (a solver
// repetition, a served job) share Run.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"` // 0 = root
	Run    int           `json:"run"`
	Name   string        `json:"name"`
	Start  time.Time     `json:"start"`
	Dur    time.Duration `json:"dur_ns"`
}

// tracer keeps spans in memory; they are written out when the run ends.
// A nil *tracer records nothing, so untraced code paths pay one nil check.
type tracer struct {
	mu    sync.Mutex
	spans []span
	run   int
}

// newRun starts a new unit of work and returns its id.
func (t *tracer) newRun() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.run++
	return t.run
}

// begin opens a span and returns its id; end closes it.
func (t *tracer) begin(run, parent int, name string) int {
	if t == nil {
		return 0
	}
	return t.add(run, parent, name, time.Now(), 0)
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].Dur = time.Since(t.spans[id-1].Start)
}

// add records a finished span and returns its id.
func (t *tracer) add(run, parent int, name string, start time.Time, d time.Duration) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Run: run, Name: name, Start: start, Dur: d})
	return id
}

// durations returns every recorded duration of spans named name.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.Dur.Seconds())
		}
	}
	return out
}

// selfTimes returns, for every span named name, its duration minus the
// durations of its direct children.
func (t *tracer) selfTimes(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := map[int]time.Duration{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.Dur
		}
	}
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, (s.Dur - child[s.ID]).Seconds())
		}
	}
	return out
}

// total sums the durations of spans named name.
func (t *tracer) total(name string) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var d time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			d += s.Dur
		}
	}
	return d
}

// write saves the spans as one compact JSON array.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// benchSolver is the capability set both production solvers (the hybrid
// simulation and the 1D1V plasma solver) expose to the runner.
type benchSolver interface {
	runner.Solver
	runner.Checkpointer
	runner.CheckpointCapturer
	runner.WorkerBudgeted
}

// tracedSolver times every call the runner makes into the solver. It
// forwards the optional capabilities unchanged, so the runner takes the
// same code path as with the bare solver.
type tracedSolver struct {
	benchSolver
	tr     *tracer
	run    int
	parent int    // span of the runner.Run call
	name   string // span name of Step, e.g. "hybrid.step"
	// child, when set, records child spans of the Step span just closed.
	child func(stepSpan int, start time.Time)
	mu    sync.Mutex
	inner time.Duration // time spent inside solver calls
}

func (s *tracedSolver) timed(name string, fn func() error) (int, time.Time, error) {
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	s.mu.Lock()
	s.inner += d
	s.mu.Unlock()
	return s.tr.add(s.run, s.parent, name, t0, d), t0, err
}

func (s *tracedSolver) Step(dt float64) error {
	id, t0, err := s.timed(s.name, func() error { return s.benchSolver.Step(dt) })
	if s.child != nil {
		s.child(id, t0)
	}
	return err
}

func (s *tracedSolver) SuggestDT() float64 {
	var dt float64
	_, _, _ = s.timed(s.name+".suggest_dt", func() error { dt = s.benchSolver.SuggestDT(); return nil })
	return dt
}

func (s *tracedSolver) CaptureCheckpoint() (func(io.Writer) (int64, error), error) {
	var w func(io.Writer) (int64, error)
	_, _, err := s.timed("runner.checkpoint_capture", func() error {
		var err error
		w, err = s.benchSolver.CaptureCheckpoint()
		return err
	})
	return w, err
}

// insideSolver is the wall time spent inside solver calls so far.
func (s *tracedSolver) insideSolver() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inner
}

// clampedSolver adds the hybrid simulation's DTClamper capability.
type clampedSolver struct{ *tracedSolver }

func (s clampedSolver) ClampDT(dt, until float64) float64 {
	var out float64
	_, _, _ = s.timed(s.name+".clamp_dt", func() error {
		out = s.benchSolver.(runner.DTClamper).ClampDT(dt, until)
		return nil
	})
	return out
}

// forRunner returns the wrapper with exactly the capabilities of the
// wrapped solver.
func (s *tracedSolver) forRunner() runner.Solver {
	if _, ok := s.benchSolver.(runner.DTClamper); ok {
		return clampedSolver{s}
	}
	return s
}
