package advect

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func sineLine(n int) []float64 {
	f := make([]float64, n)
	for i := range f {
		f[i] = 2 + math.Sin(2*math.Pi*float64(i)/float64(n))
	}
	return f
}

func stepLine(n int) []float64 {
	f := make([]float64, n)
	for i := n / 4; i < 3*n/4; i++ {
		f[i] = 1
	}
	return f
}

func sum(f []float64) float64 {
	s := 0.0
	for _, v := range f {
		s += v
	}
	return s
}

func allSchemes() []Scheme {
	return []Scheme{NewSLMPP5(), NewMP5(), NewUpwind1(), NewLaxWendroff2()}
}

func TestNewByName(t *testing.T) {
	for _, name := range Names() {
		s, err := New(name)
		if err != nil {
			t.Fatal(err)
		}
		if s.Name() != name {
			t.Fatalf("scheme %q reports name %q", name, s.Name())
		}
	}
	if _, err := New("nope"); err == nil {
		t.Fatal("unknown scheme accepted")
	}
}

func TestStageCounts(t *testing.T) {
	// The paper's cost argument: SL-MPP5 needs one flux stage, MP5+RK3 three.
	if got := NewSLMPP5().Stages(); got != 1 {
		t.Fatalf("SL-MPP5 stages = %d, want 1", got)
	}
	if got := NewMP5().Stages(); got != 3 {
		t.Fatalf("MP5-RK3 stages = %d, want 3", got)
	}
}

func TestMassConservationPeriodic(t *testing.T) {
	for _, s := range allSchemes() {
		for _, c := range []float64{0.3, -0.3, 0.9, -0.9} {
			f := stepLine(64)
			m0 := sum(f)
			for it := 0; it < 50; it++ {
				if err := s.Step(f, c); err != nil {
					t.Fatalf("%s: %v", s.Name(), err)
				}
			}
			if d := math.Abs(sum(f) - m0); d > 1e-10 {
				t.Fatalf("%s c=%v: mass drift %v", s.Name(), c, d)
			}
		}
	}
}

func TestMassConservationLargeCFL(t *testing.T) {
	s := NewSLMPP5()
	for _, c := range []float64{1.5, 2.7, -3.3, 17.25, -0.001} {
		f := stepLine(96)
		m0 := sum(f)
		for it := 0; it < 20; it++ {
			if err := s.Step(f, c); err != nil {
				t.Fatal(err)
			}
		}
		if d := math.Abs(sum(f) - m0); d > 1e-10 {
			t.Fatalf("c=%v: mass drift %v", c, d)
		}
	}
}

func TestIntegerShiftIsExact(t *testing.T) {
	// With an integer CFL the semi-Lagrangian update is an exact shift (the
	// identity at c = 0).
	s := NewSLMPP5()
	for _, c := range []float64{0, 1, 3, -2, -5} {
		n := 32
		f := make([]float64, n)
		rng := rand.New(rand.NewSource(1))
		for i := range f {
			f[i] = rng.Float64()
		}
		want := make([]float64, n)
		for i := range want {
			want[i] = f[mod(i-int(c), n)]
		}
		if err := s.Step(f, c); err != nil {
			t.Fatal(err)
		}
		for i := range f {
			if math.Abs(f[i]-want[i]) > 1e-12 {
				t.Fatalf("c=%v: cell %d = %v, want %v", c, i, f[i], want[i])
			}
		}
	}
}

// convergenceRate advects a smooth profile one full period and returns the
// measured order between resolutions n and 2n.
func convergenceRate(t *testing.T, s Scheme, n int, cfl float64) float64 {
	t.Helper()
	err1 := advectError(t, s, n, cfl)
	err2 := advectError(t, s, 2*n, cfl)
	return math.Log2(err1 / err2)
}

func advectError(t *testing.T, s Scheme, n int, cfl float64) float64 {
	t.Helper()
	f := make([]float64, n)
	exact := make([]float64, n)
	for i := range f {
		x := float64(i) / float64(n)
		f[i] = 2 + math.Sin(2*math.Pi*x)
		exact[i] = f[i]
	}
	steps := int(math.Round(float64(n) / cfl)) // one full period
	c := float64(n) / float64(steps)           // adjust so steps·c = n exactly
	for it := 0; it < steps; it++ {
		if err := s.Step(f, c); err != nil {
			t.Fatal(err)
		}
	}
	e := 0.0
	for i := range f {
		e += math.Abs(f[i] - exact[i])
	}
	return e / float64(n)
}

func TestSLMPP5FifthOrder(t *testing.T) {
	s := NewSLMPP5()
	rate := convergenceRate(t, s, 32, 0.4)
	if rate < 4.2 {
		t.Fatalf("SL-MPP5 convergence order %v, want ≥ 4.2", rate)
	}
}

func TestSLMPP5UnlimitedFifthOrder(t *testing.T) {
	s := &SLMPP5{DisableMP: true, DisablePP: true}
	rate := convergenceRate(t, s, 32, 0.4)
	if rate < 4.6 {
		t.Fatalf("unlimited CSL5 convergence order %v, want ≥ 4.6", rate)
	}
}

// TestSLMPP5ShiftsSineOnePeriod advects a smooth profile one full period at
// CFL 0.5, rounding to float32 after every step as the solver's storage
// does, and requires it to return to itself with only high-order error,
// with and without the limiters.
func TestSLMPP5ShiftsSineOnePeriod(t *testing.T) {
	const n = 64
	for _, s := range []*SLMPP5{NewSLMPP5(), {DisableMP: true, DisablePP: true}} {
		line := sineLine(n)
		orig := append([]float64(nil), line...)
		for it := 0; it < 2*n; it++ {
			if err := s.Step(line, 0.5); err != nil {
				t.Fatal(err)
			}
			for i, v := range line {
				line[i] = float64(float32(v))
			}
		}
		for i := range line {
			if d := math.Abs(line[i] - orig[i]); d > 1e-3 {
				t.Fatalf("DisableMP=%v: cell %d error %v after one period", s.DisableMP, i, d)
			}
		}
	}
}

func TestMP5FifthOrderSpace(t *testing.T) {
	// With CFL fixed, RK3's O(Δt³) error dominates at 5th order in space;
	// use a small CFL so the spatial error is visible.
	s := NewMP5()
	rate := convergenceRate(t, s, 32, 0.1)
	if rate < 2.8 { // limited by RK3 temporal order at fixed CFL
		t.Fatalf("MP5-RK3 convergence order %v, want ≥ 2.8", rate)
	}
}

func TestUpwindFirstOrder(t *testing.T) {
	s := NewUpwind1()
	rate := convergenceRate(t, s, 64, 0.4)
	if rate < 0.7 || rate > 1.4 {
		t.Fatalf("upwind order %v, want ≈ 1", rate)
	}
}

func TestSchemeAccuracyOrdering(t *testing.T) {
	// The paper's point: SL-MPP5 is far less diffusive than low-order
	// schemes at equal resolution.
	n := 64
	eSL := advectError(t, NewSLMPP5(), n, 0.4)
	eUp := advectError(t, NewUpwind1(), n, 0.4)
	eLW := advectError(t, NewLaxWendroff2(), n, 0.4)
	if !(eSL < eLW && eLW < eUp) {
		t.Fatalf("error ordering violated: slmpp5=%v lw=%v upwind=%v", eSL, eLW, eUp)
	}
	if eUp/eSL < 100 {
		t.Fatalf("SL-MPP5 should beat upwind by ≫ 100×, got %v×", eUp/eSL)
	}
}

func TestMonotonicityOnStep(t *testing.T) {
	// Advect a step: MP schemes must not create new extrema beyond the
	// initial [0,1] range (to round-off) when run within their guaranteed
	// CFL regime. SL-MPP5's CFL-adaptive α makes it monotone at any CFL;
	// classic MP5 with α = 4 guarantees monotonicity for CFL ≤ 1/(1+α).
	cases := []struct {
		s   Scheme
		cfl float64
	}{
		{NewSLMPP5(), 0.45},
		{NewSLMPP5(), 1.37}, // beyond CFL 1, SL regime
		{NewMP5(), 0.18},
	}
	for _, tc := range cases {
		f := stepLine(64)
		for it := 0; it < 100; it++ {
			if err := tc.s.Step(f, tc.cfl); err != nil {
				t.Fatal(err)
			}
		}
		for i, v := range f {
			if v < -1e-10 || v > 1+1e-10 {
				t.Fatalf("%s cfl=%v: overshoot at %d: %v", tc.s.Name(), tc.cfl, i, v)
			}
		}
	}
}

func TestLaxWendroffOscillates(t *testing.T) {
	// Sanity check that the limiter comparison above is meaningful: the
	// unlimited second-order scheme DOES overshoot on a step.
	s := NewLaxWendroff2()
	f := stepLine(64)
	for it := 0; it < 40; it++ {
		if err := s.Step(f, 0.45); err != nil {
			t.Fatal(err)
		}
	}
	over := false
	for _, v := range f {
		if v < -1e-6 || v > 1+1e-6 {
			over = true
		}
	}
	if !over {
		t.Fatal("Lax-Wendroff unexpectedly monotone — limiter tests are vacuous")
	}
}

func TestPositivityPreservation(t *testing.T) {
	// A narrow spike with zero background must stay non-negative.
	s := NewSLMPP5()
	f := make([]float64, 64)
	f[30] = 1
	f[31] = 2
	for it := 0; it < 200; it++ {
		if err := s.Step(f, 0.37); err != nil {
			t.Fatal(err)
		}
		for i, v := range f {
			if v < 0 {
				t.Fatalf("negative value %v at cell %d, step %d", v, i, it)
			}
		}
	}
	if d := math.Abs(sum(f) - 3); d > 1e-10 {
		t.Fatalf("mass drift %v under PP clipping", d)
	}
}

func TestStepOpenLosesMassThroughBoundary(t *testing.T) {
	s := NewSLMPP5()
	f := make([]float64, 32)
	f[30] = 1
	m0 := sum(f)
	// Push mass rightward out of the open boundary.
	for it := 0; it < 10; it++ {
		if err := s.StepOpen(f, 0.8); err != nil {
			t.Fatal(err)
		}
	}
	if sum(f) >= m0 {
		t.Fatal("open boundary did not lose mass")
	}
	for i, v := range f {
		if v < 0 {
			t.Fatalf("negative value at %d: %v", i, v)
		}
	}
}

func TestStepOpenNoInflow(t *testing.T) {
	s := NewSLMPP5()
	f := make([]float64, 32) // all zero
	if err := s.StepOpen(f, 0.8); err != nil {
		t.Fatal(err)
	}
	for i, v := range f {
		if v != 0 {
			t.Fatalf("vacuum line gained mass at %d: %v", i, v)
		}
	}
}

func TestErrorsOnShortLines(t *testing.T) {
	for _, s := range allSchemes() {
		f := []float64{1}
		if err := s.Step(f, 0.5); err == nil {
			t.Fatalf("%s accepted a 1-cell line", s.Name())
		}
	}
}

func TestCFLLimitEnforced(t *testing.T) {
	for _, s := range []Scheme{NewMP5(), NewUpwind1(), NewLaxWendroff2()} {
		f := sineLine(16)
		if err := s.Step(f, 1.5); err == nil {
			t.Fatalf("%s accepted CFL 1.5", s.Name())
		}
	}
	// SL-MPP5 must accept it.
	if err := NewSLMPP5().Step(sineLine(16), 1.5); err != nil {
		t.Fatalf("SL-MPP5 rejected CFL 1.5: %v", err)
	}
}

func TestCloneIndependence(t *testing.T) {
	for _, s := range allSchemes() {
		c := s.Clone()
		if c.Name() != s.Name() {
			t.Fatalf("clone of %s has name %s", s.Name(), c.Name())
		}
		f1, f2 := sineLine(32), sineLine(32)
		if err := s.Step(f1, 0.5); err != nil {
			t.Fatal(err)
		}
		if err := c.Step(f2, 0.5); err != nil {
			t.Fatal(err)
		}
		for i := range f1 {
			if f1[i] != f2[i] {
				t.Fatalf("%s: clone diverges at %d", s.Name(), i)
			}
		}
	}
}

func TestConservationProperty(t *testing.T) {
	// Property: for random non-negative lines and random CFL, SL-MPP5
	// conserves mass and preserves positivity.
	s := NewSLMPP5()
	f := func(seed int64, craw float64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 16 + rng.Intn(48)
		line := make([]float64, n)
		for i := range line {
			line[i] = rng.Float64() * 10
		}
		c := math.Mod(craw, 8)
		m0 := sum(line)
		if err := s.Step(line, c); err != nil {
			return false
		}
		if math.Abs(sum(line)-m0) > 1e-9*(1+m0) {
			return false
		}
		for _, v := range line {
			if v < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestQuinticInterpolatesNodes(t *testing.T) {
	w := [6]float64{0, 1, 4, 9, 16, 25}
	for m := 0; m < 6; m++ {
		if got := quintic(&w, float64(m)); math.Abs(got-w[m]) > 1e-12 {
			t.Fatalf("quintic(%d) = %v, want %v", m, got, w[m])
		}
	}
	// Quintic must reproduce any degree-5 polynomial exactly; t².
	for _, tv := range []float64{0.5, 1.7, 2.3, 4.9} {
		if got := quintic(&w, tv); math.Abs(got-tv*tv) > 1e-10 {
			t.Fatalf("quintic(%v) = %v, want %v", tv, got, tv*tv)
		}
	}
}

func TestMinmodMedian(t *testing.T) {
	if minmod2(1, 2) != 1 || minmod2(-1, -3) != -1 || minmod2(-1, 2) != 0 {
		t.Fatal("minmod2 wrong")
	}
	if minmod4(1, 2, 3, 4) != 1 || minmod4(1, -2, 3, 4) != 0 {
		t.Fatal("minmod4 wrong")
	}
	if median(0, 1, 2) != 1 || median(5, 1, 2) != 2 || median(1.5, 1, 2) != 1.5 {
		t.Fatal("median wrong")
	}
}
