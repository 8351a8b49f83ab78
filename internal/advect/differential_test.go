package advect

import (
	"math"
	"math/rand"
	"testing"
)

// firstBitDiff returns the first index at which a and b differ in any bit,
// or −1 when they agree to 0 ULP.
func firstBitDiff(a, b []float64) int {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// diffProfiles returns the random, step and Gaussian lines of n cells the
// differential tests advect.
func diffProfiles(n int, rng *rand.Rand) [][]float64 {
	random, gauss := make([]float64, n), make([]float64, n)
	for i := range random {
		random[i] = rng.Float64()
		x := (float64(i) - 0.4*float64(n)) / (0.15 * float64(n))
		gauss[i] = math.Exp(-x * x)
	}
	return [][]float64{random, stepLine(n), gauss}
}

// checkSLMPP5Reference advances line by one SL-MPP5 step at CFL c with s
// and with the callback oracle, and fails unless the two agree to 0 ULP.
// It also advances a caller-padded copy, with one ghost more than the step
// reads, through StepPadded, which must give the same interior and leave
// the ghosts alone.
func checkSLMPP5Reference(t *testing.T, s *SLMPP5, line []float64, c float64, periodic bool) {
	t.Helper()
	n := len(line)
	ref := &refSLMPP5{SLMPP5: SLMPP5{DisableMP: s.DisableMP, DisablePP: s.DisablePP}}
	want := append([]float64(nil), line...)
	got := append([]float64(nil), line...)
	var errRef, err error
	if periodic {
		errRef, err = ref.Step(want, c), s.Step(got, c)
	} else {
		errRef, err = ref.StepOpen(want, c), s.StepOpen(got, c)
	}
	if errRef != nil || err != nil {
		t.Fatalf("n=%d c=%v periodic=%v: reference err %v, scheme err %v", n, c, periodic, errRef, err)
	}
	if i := firstBitDiff(got, want); i >= 0 {
		t.Fatalf("n=%d c=%v periodic=%v MP=%v PP=%v: cell %d = %v, reference %v",
			n, c, periodic, !s.DisableMP, !s.DisablePP, i, got[i], want[i])
	}

	g := ghostWidth(c) + 1
	p := make([]float64, n+2*g)
	for j := -g; j < n+g; j++ {
		if periodic {
			p[g+j] = line[mod(j, n)]
		} else if j >= 0 && j < n {
			p[g+j] = line[j]
		}
	}
	p0 := append([]float64(nil), p...)
	if err := s.StepPadded(p, g, c); err != nil {
		t.Fatalf("n=%d c=%v: StepPadded: %v", n, c, err)
	}
	if i := firstBitDiff(p[g:g+n], want); i >= 0 {
		t.Fatalf("n=%d c=%v periodic=%v: StepPadded cell %d = %v, reference %v",
			n, c, periodic, i, p[g+i], want[i])
	}
	if firstBitDiff(p[:g], p0[:g]) >= 0 || firstBitDiff(p[g+n:], p0[g+n:]) >= 0 {
		t.Fatalf("n=%d c=%v: StepPadded wrote a ghost cell", n, c)
	}
}

func TestSLMPP5MatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var cfls []float64
	for i := 0; i < 400; i++ {
		cfls = append(cfls, -3+6*rng.Float64())
	}
	for _, c := range []float64{0, 1, 2, 3, 5.99, 6} {
		cfls = append(cfls, c, -c)
	}
	// One instance per limiter setting, reused across line lengths, so the
	// check also covers scratch reuse.
	schemes := []*SLMPP5{
		{}, {DisableMP: true}, {DisablePP: true}, {DisableMP: true, DisablePP: true},
	}
	for _, n := range []int{6, 7, 8, 13, 64, 128} {
		for _, line := range diffProfiles(n, rng) {
			for _, s := range schemes {
				for _, periodic := range []bool{true, false} {
					for _, c := range cfls {
						checkSLMPP5Reference(t, s, line, c, periodic)
					}
				}
			}
		}
	}
}

func TestCFLLimitedSchemesMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	cfls := []float64{0, 1, -1}
	for i := 0; i < 100; i++ {
		cfls = append(cfls, -1+2*rng.Float64())
	}
	pairs := []struct{ s, ref Scheme }{
		{NewMP5(), &refMP5{}},
		{NewUpwind1(), &refUpwind1{}},
		{NewLaxWendroff2(), &refLaxWendroff2{}},
	}
	for _, n := range []int{6, 7, 8, 13, 64, 128} {
		for _, line := range diffProfiles(n, rng) {
			for _, pr := range pairs {
				for _, c := range cfls {
					want := append([]float64(nil), line...)
					got := append([]float64(nil), line...)
					if err := pr.ref.Step(want, c); err != nil {
						t.Fatal(err)
					}
					if err := pr.s.Step(got, c); err != nil {
						t.Fatal(err)
					}
					if i := firstBitDiff(got, want); i >= 0 {
						t.Fatalf("%s n=%d c=%v: cell %d = %v, reference %v",
							pr.s.Name(), n, c, i, got[i], want[i])
					}
				}
			}
		}
	}
}

func TestNonFiniteAndHugeCFLRejected(t *testing.T) {
	type stepFn struct {
		name string
		step func(f []float64, c float64) error
	}
	var steps []stepFn
	for _, s := range allSchemes() {
		steps = append(steps, stepFn{s.Name() + ".Step", s.Step})
	}
	sl := NewSLMPP5()
	steps = append(steps,
		stepFn{"slmpp5.StepOpen", sl.StepOpen},
		stepFn{"slmpp5.StepPadded", func(f []float64, c float64) error { return sl.StepPadded(f, 4, c) }},
	)
	for _, st := range steps {
		for _, c := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e300, -1e300} {
			f := stepLine(32)
			f0 := append([]float64(nil), f...)
			if err := st.step(f, c); err == nil {
				t.Fatalf("%s accepted CFL %v", st.name, c)
			}
			if i := firstBitDiff(f, f0); i >= 0 {
				t.Fatalf("%s at CFL %v changed cell %d", st.name, c, i)
			}
		}
	}
}

func TestSLMPP5ShiftBoundedByLine(t *testing.T) {
	s := NewSLMPP5()
	for _, c := range []float64{8, -8, 7.5} {
		if err := s.Step(stepLine(8), c); err != nil {
			t.Fatalf("CFL %v on 8 cells rejected: %v", c, err)
		}
	}
	for _, c := range []float64{8.01, -8.5, 1e19} {
		f := stepLine(8)
		if err := s.StepOpen(f, c); err == nil {
			t.Fatalf("CFL %v on 8 cells accepted", c)
		}
	}
}

func TestStepPaddedNeedsGhostWidth(t *testing.T) {
	s := NewSLMPP5()
	// w(c) = ⌈|c|⌉ + 2: three ghosts carry |c| ≤ 1, two only c = 0.
	cases := []struct {
		g  int
		c  float64
		ok bool
	}{
		{3, 1, true}, {3, -1, true}, {3, 0.4, true},
		{3, 1.01, false}, {3, -1.5, false},
		{2, 0, true}, {2, 0.1, false},
		{5, 2.7, true}, {4, -2.7, false},
	}
	for _, tc := range cases {
		p := make([]float64, 8+2*tc.g)
		for i := range p {
			p[i] = float64(i % 3)
		}
		p0 := append([]float64(nil), p...)
		err := s.StepPadded(p, tc.g, tc.c)
		if (err == nil) != tc.ok {
			t.Fatalf("g=%d c=%v: err %v, want ok=%v", tc.g, tc.c, err, tc.ok)
		}
		if !tc.ok && firstBitDiff(p, p0) >= 0 {
			t.Fatalf("g=%d c=%v: rejected step changed the line", tc.g, tc.c)
		}
	}
}

// FuzzSLMPP5Reference decodes a line of 6…128 cells, a CFL number, the
// boundary kind and the limiter flags, and checks SL-MPP5 against the
// callback oracle to 0 ULP — or, for a non-finite CFL or one that shifts
// past the line, that every entry point rejects it and leaves the line
// unchanged.
func FuzzSLMPP5Reference(f *testing.F) {
	f.Fuzz(func(t *testing.T, nRaw uint8, c float64, periodic bool, limiters uint8, cells []byte) {
		n := 6 + int(nRaw)%123
		line := make([]float64, n)
		if len(cells) > 0 {
			for i := range line {
				line[i] = float64(int8(cells[i%len(cells)])) / 16
			}
		}
		s := &SLMPP5{DisableMP: limiters&1 != 0, DisablePP: limiters&2 != 0}
		if math.IsNaN(c) || math.IsInf(c, 0) || math.Ceil(math.Abs(c)) > float64(n) {
			line0 := append([]float64(nil), line...)
			g := n + 2
			p := make([]float64, n+2*g)
			copy(p[g:], line)
			for _, step := range []func() error{
				func() error { return s.Step(line, c) },
				func() error { return s.StepOpen(line, c) },
				func() error { return s.StepPadded(p, g, c) },
			} {
				if err := step(); err == nil {
					t.Fatalf("n=%d: CFL %v accepted", n, c)
				}
			}
			if firstBitDiff(line, line0) >= 0 || firstBitDiff(p[g:g+n], line0) >= 0 {
				t.Fatalf("n=%d: rejected CFL %v changed the line", n, c)
			}
			return
		}
		checkSLMPP5Reference(t, s, line, c, periodic)
	})
}
