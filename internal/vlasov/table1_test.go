package vlasov

import (
	"math"
	"slices"
	"testing"
)

// TestMeasureTable1SmokeAndShape runs the Table 1 measurement on a small
// grid: six rows in the paper's order, finite positive throughput, and the
// swept grid still conserves mass once boundary loss is counted.
func TestMeasureTable1SmokeAndShape(t *testing.T) {
	s, err := NewTable1Solver(6, 8)
	if err != nil {
		t.Fatal(err)
	}
	g := s.Grid()
	m0 := g.TotalMass()
	rows, err := MeasureTable1(s, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(Table1Directions) {
		t.Fatalf("%d rows, want %d", len(rows), len(Table1Directions))
	}
	for i, r := range rows {
		if r.Direction != Table1Directions[i] {
			t.Errorf("row %d is %q, want %q", i, r.Direction, Table1Directions[i])
		}
		for _, v := range []float64{r.NsPerCellSweep, r.GFlops} {
			if !(v > 0) || math.IsInf(v, 0) {
				t.Errorf("row %q: non-finite or non-positive figure %v", r.Direction, v)
			}
		}
	}
	m1 := g.TotalMass()
	if rel := math.Abs(m1+s.BoundaryLoss-m0) / m0; rel > 2e-5 {
		t.Fatalf("mass drift %v (m0=%v m1=%v loss=%v)", rel, m0, m1, s.BoundaryLoss)
	}
	if _, err := MeasureTable1Sweep(s, "w", 1); err == nil {
		t.Error("unknown direction accepted")
	}
	if _, err := MeasureTable1Sweep(s, "x", 0); err == nil {
		t.Error("zero reps accepted")
	}
}

// TestHalfStepsAreAxisSweeps checks that KickHalf and Drift are exactly the
// three KickAxis (at dt/2) and DriftAxis calls, bit for bit, and that the
// axis sweeps reject a bad axis or acceleration length.
func TestHalfStepsAreAxisSweeps(t *testing.T) {
	const dt, a = 0.002, 0.9
	newSolver := func() *Solver {
		s, err := NewTable1Solver(8, 8)
		if err != nil {
			t.Fatal(err)
		}
		s.SetWorkers(2)
		return s
	}
	whole, split := newSolver(), newSolver()
	acc := zeroAcc(whole.Grid().NCells())
	for c := range acc[0] {
		acc[0][c] = 400 * math.Sin(float64(c))
		acc[1][c] = -300
		acc[2][c] = 2e5 // CFL 0.2: pushes mass through the uz boundary
	}
	if err := whole.KickHalf(dt, acc); err != nil {
		t.Fatal(err)
	}
	if err := whole.Drift(dt, a); err != nil {
		t.Fatal(err)
	}
	for d := 0; d < 3; d++ {
		if err := split.KickAxis(d, dt/2, acc[d]); err != nil {
			t.Fatal(err)
		}
	}
	for d := 0; d < 3; d++ {
		if err := split.DriftAxis(d, dt, a); err != nil {
			t.Fatal(err)
		}
	}
	if !slices.Equal(whole.Grid().Data, split.Grid().Data) {
		t.Fatal("KickHalf+Drift differs from the per-axis sweeps")
	}
	if whole.BoundaryLoss != split.BoundaryLoss || whole.BoundaryLoss == 0 {
		t.Fatalf("boundary loss %v vs %v (want equal and nonzero)", whole.BoundaryLoss, split.BoundaryLoss)
	}

	for _, d := range []int{-1, 3} {
		if err := split.KickAxis(d, dt, acc[0]); err == nil {
			t.Errorf("KickAxis accepted axis %d", d)
		}
		if err := split.DriftAxis(d, dt, a); err == nil {
			t.Errorf("DriftAxis accepted axis %d", d)
		}
	}
	if err := split.KickAxis(0, dt, acc[0][1:]); err == nil {
		t.Error("KickAxis accepted a short acceleration array")
	}
	if !slices.Equal(whole.Grid().Data, split.Grid().Data) {
		t.Fatal("a rejected sweep modified the grid")
	}
}
