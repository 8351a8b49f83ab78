package vlasov

import (
	"math"
	"slices"
	"testing"

	"vlasov6d/internal/advect"
)

// sweepSolver returns a Table 1 solver (6³ × 8³) pinned to the given worker
// count, together with a per-cell acceleration field whose kick CFL numbers
// vary in sign and reach past 1, so that kicks push mass out through the
// open velocity boundary.
func sweepSolver(t *testing.T, workers int) (*Solver, [3][]float64) {
	t.Helper()
	s, err := NewTable1Solver(6, 8)
	if err != nil {
		t.Fatal(err)
	}
	s.SetWorkers(workers)
	g := s.Grid()
	acc := zeroAcc(g.NCells())
	for c := range acc[0] {
		x := float64(c)
		acc[0][c] = g.DU(0) * 1.6 * math.Sin(0.37*x)
		acc[1][c] = g.DU(1) * (0.9*math.Cos(0.21*x) - 0.3)
		acc[2][c] = g.DU(2) * 1.2
	}
	return s, acc
}

// sweepDT is the kick time step (CFL = acc/Δu) and sweepDriftDT the drift
// step at a = 1, which moves the fastest velocity about 2.1 cells.
const sweepDT, sweepDriftDT = 1.0, 0.01

// axisSweep runs the k-th Table 1 direction (0–2 kicks, 3–5 drifts) with
// the sign of dt given by sign.
func axisSweep(s *Solver, acc [3][]float64, k int, sign float64) error {
	if k < 3 {
		return s.KickAxis(k, sign*sweepDT, acc[k])
	}
	return s.DriftAxis(k-3, sign*sweepDriftDT, 1.0)
}

// TestParallelSweepBitIdentical checks, for every axis sweep on its own and
// several worker counts (including counts that do not divide the lines
// evenly or exceed them), that the parallel sweep writes bit-identical data
// to the serial one and records the same boundary loss.
func TestParallelSweepBitIdentical(t *testing.T) {
	for k, dir := range Table1Directions {
		ref, acc := sweepSolver(t, 1)
		if err := axisSweep(ref, acc, k, 1); err != nil {
			t.Fatalf("serial %s sweep: %v", dir, err)
		}
		for _, nw := range []int{2, 3, 5, 16} {
			par, acc := sweepSolver(t, nw)
			if err := axisSweep(par, acc, k, 1); err != nil {
				t.Fatalf("%s sweep, %d workers: %v", dir, nw, err)
			}
			rd, pd := ref.Grid().Data, par.Grid().Data
			for i := range rd {
				if rd[i] != pd[i] {
					t.Fatalf("%s sweep, %d workers: data[%d] = %x, serial %x", dir, nw, i, pd[i], rd[i])
				}
			}
			if d := math.Abs(par.BoundaryLoss - ref.BoundaryLoss); d > 1e-12*math.Abs(ref.BoundaryLoss) {
				t.Fatalf("%s sweep, %d workers: boundary loss %v, serial %v", dir, nw, par.BoundaryLoss, ref.BoundaryLoss)
			}
		}
	}
}

// TestParallelSweepRepeatedBitIdentical runs three rounds of all six axis
// sweeps, alternating the sign of dt, on one solver whose worker pool is
// reused across every call, and checks the composite is bit-identical
// between one and three workers.
func TestParallelSweepRepeatedBitIdentical(t *testing.T) {
	run := func(workers int) *Solver {
		s, acc := sweepSolver(t, workers)
		for rep := 0; rep < 3; rep++ {
			sign := float64(1 - 2*(rep%2))
			for k := range Table1Directions {
				if err := axisSweep(s, acc, k, sign); err != nil {
					t.Fatal(err)
				}
			}
		}
		return s
	}
	ref, par := run(1), run(3)
	if ref.BoundaryLoss == 0 {
		t.Fatal("sweeps lost no mass: the open velocity boundary went untested")
	}
	rd, pd := ref.Grid().Data, par.Grid().Data
	for i := range rd {
		if rd[i] != pd[i] {
			t.Fatalf("composite sweep differs at %d: %x vs %x", i, pd[i], rd[i])
		}
	}
}

// TestSweepSteadyStateZeroAlloc asserts the pooled-scratch contract for the
// axis sweeps themselves: after one warm-up sweep of each direction,
// repeating all six sweeps with one worker allocates nothing.
func TestSweepSteadyStateZeroAlloc(t *testing.T) {
	s, acc := sweepSolver(t, 1)
	sweepAll := func() {
		for k := range Table1Directions {
			if err := axisSweep(s, acc, k, 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	sweepAll() // warm the worker pool and CFL table
	if allocs := testing.AllocsPerRun(5, sweepAll); allocs != 0 {
		t.Fatalf("steady-state axis sweeps allocate %.1f allocs/op, want 0", allocs)
	}
}

// TestSweepConservesMass checks each axis sweep on its own: the mass left
// on the grid plus the mass recorded as boundary loss equals the mass
// before the sweep, to float32 storage precision. Drifts are periodic and
// must lose nothing.
func TestSweepConservesMass(t *testing.T) {
	for k, dir := range Table1Directions {
		s, acc := sweepSolver(t, 2)
		g := s.Grid()
		m0 := g.TotalMass()
		if err := axisSweep(s, acc, k, 1); err != nil {
			t.Fatalf("%s sweep: %v", dir, err)
		}
		m1 := g.TotalMass()
		if rel := math.Abs(m1+s.BoundaryLoss-m0) / m0; rel > 2e-6 {
			t.Fatalf("%s sweep: mass drift %v (m0=%v m1=%v loss=%v)", dir, rel, m0, m1, s.BoundaryLoss)
		}
		if k >= 3 && s.BoundaryLoss != 0 {
			t.Fatalf("%s drift recorded boundary loss %v", dir, s.BoundaryLoss)
		}
		if k < 3 && s.BoundaryLoss <= 0 {
			t.Fatalf("%s kick at CFL > 1 recorded no boundary loss", dir)
		}
	}
}

// TestZeroCFLIsIdentity checks that every axis sweep at zero CFL (dt = 0
// for drifts, zero acceleration for kicks) leaves the grid bit-identical
// and records no loss, and that the line kernel itself is the identity at
// c = 0 on both its periodic and its open path.
func TestZeroCFLIsIdentity(t *testing.T) {
	s, _ := sweepSolver(t, 3)
	g := s.Grid()
	want := slices.Clone(g.Data)
	zero := zeroAcc(g.NCells())
	for d := 0; d < 3; d++ {
		if err := s.KickAxis(d, sweepDT, zero[d]); err != nil {
			t.Fatal(err)
		}
		if err := s.DriftAxis(d, 0, 1.0); err != nil {
			t.Fatal(err)
		}
	}
	if !slices.Equal(g.Data, want) {
		t.Fatal("zero-CFL sweeps changed the grid")
	}
	if s.BoundaryLoss != 0 {
		t.Fatalf("zero-CFL sweeps recorded boundary loss %v", s.BoundaryLoss)
	}

	sl := advect.NewSLMPP5()
	line := make([]float64, 16)
	for i := range line {
		line[i] = float64(g.Data[i*97])
	}
	orig := slices.Clone(line)
	if err := sl.Step(line, 0); err != nil {
		t.Fatal(err)
	}
	if err := sl.StepOpen(line, 0); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(line, orig) {
		t.Fatalf("SL-MPP5 at c = 0 changed the line: %v, want %v", line, orig)
	}
}
