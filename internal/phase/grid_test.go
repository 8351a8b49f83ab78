package phase

import (
	"math"
	"testing"
	"testing/quick"
)

func smallGrid(t *testing.T) *Grid {
	t.Helper()
	g, err := New(4, 3, 5, [3]int{8, 6, 10}, [3]float64{100, 100, 100}, 2000)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 2, 2, [3]int{8, 8, 8}, [3]float64{1, 1, 1}, 1); err == nil {
		t.Fatal("zero spatial extent accepted")
	}
	if _, err := New(2, 2, 2, [3]int{4, 8, 8}, [3]float64{1, 1, 1}, 1); err == nil {
		t.Fatal("velocity extent < 6 accepted")
	}
	if _, err := New(2, 2, 2, [3]int{8, 8, 8}, [3]float64{0, 1, 1}, 1); err == nil {
		t.Fatal("zero box accepted")
	}
	if _, err := New(2, 2, 2, [3]int{8, 8, 8}, [3]float64{1, 1, 1}, -1); err == nil {
		t.Fatal("negative UMax accepted")
	}
}

func TestLayoutAndSizes(t *testing.T) {
	g := smallGrid(t)
	if g.NCells() != 60 || g.NCube() != 480 {
		t.Fatalf("NCells=%d NCube=%d", g.NCells(), g.NCube())
	}
	if len(g.Data) != 60*480 {
		t.Fatalf("data length %d", len(g.Data))
	}
	// Cube slices tile Data without overlap.
	c0 := g.Cube(0, 0, 0)
	c1 := g.Cube(0, 0, 1)
	c0[0] = 7
	if c1[0] == 7 {
		t.Fatal("cubes alias")
	}
	if &g.Data[480] != &c1[0] {
		t.Fatal("cube 1 misplaced")
	}
}

// TestColumnStart checks that the p-th line along each axis starts at the
// cell whose other two indices are p in row-major order.
func TestColumnStart(t *testing.T) {
	g := smallGrid(t)
	for d := 0; d < 3; d++ {
		p := 0
		for ix := 0; ix < g.NX; ix++ {
			for iy := 0; iy < g.NY; iy++ {
				for iz := 0; iz < g.NZ; iz++ {
					if [3]int{ix, iy, iz}[d] != 0 {
						continue
					}
					if got, want := g.ColumnStart(d, p), g.CellIndex(ix, iy, iz); got != want {
						t.Fatalf("axis %d line %d starts at %d, want %d", d, p, got, want)
					}
					p++
				}
			}
		}
	}
}

func TestCoordinates(t *testing.T) {
	g := smallGrid(t)
	if dx := g.DX(0); math.Abs(dx-25) > 1e-14 {
		t.Fatalf("DX(0) = %v, want 25", dx)
	}
	if du := g.DU(0); math.Abs(du-500) > 1e-14 {
		t.Fatalf("DU(0) = %v, want 500", du)
	}
	// Velocity grid is symmetric: U(d, 0) = −UMax + DU/2, and the mean of
	// the first and last centres is 0.
	for d := 0; d < 3; d++ {
		lo, hi := g.U(d, 0), g.U(d, g.NU[d]-1)
		if math.Abs(lo+hi) > 1e-10 {
			t.Fatalf("velocity axis %d not symmetric: %v, %v", d, lo, hi)
		}
	}
	if x := g.X(0, 0); math.Abs(x-12.5) > 1e-14 {
		t.Fatalf("X(0,0) = %v", x)
	}
}

func TestFillAndTotalMass(t *testing.T) {
	g := smallGrid(t)
	g.Fill(func(x, y, z, ux, uy, uz float64) float64 { return 2 })
	// Total = 2 × V_x × V_u.
	vx := 100.0 * 100 * 100
	vu := math.Pow(2*2000, 3)
	want := 2 * vx * vu
	if got := g.TotalMass(); math.Abs(got-want)/want > 1e-12 {
		t.Fatalf("TotalMass = %v, want %v", got, want)
	}
}

func TestMomentsUniform(t *testing.T) {
	g := smallGrid(t)
	g.Fill(func(x, y, z, ux, uy, uz float64) float64 { return 1 })
	m := g.ComputeMoments()
	du3 := g.DU(0) * g.DU(1) * g.DU(2)
	wantRho := du3 * float64(g.NCube())
	for c := 0; c < g.NCells(); c++ {
		if math.Abs(m.Density[c]-wantRho)/wantRho > 1e-6 {
			t.Fatalf("cell %d density %v, want %v", c, m.Density[c], wantRho)
		}
		for d := 0; d < 3; d++ {
			if math.Abs(m.MeanU[d][c]) > 1e-6*g.UMax {
				t.Fatalf("cell %d mean u[%d] = %v, want 0", c, d, m.MeanU[d][c])
			}
		}
		// Uniform distribution in [−V, V): σ1D = 2V/sqrt(12).
		want := 2 * g.UMax / math.Sqrt(12)
		// Discrete correction: variance of cell centres is
		// (2V)²(1−1/n²)/12 per axis; with n ≥ 6 it is within 3%.
		if math.Abs(m.Sigma[c]-want)/want > 0.03 {
			t.Fatalf("cell %d sigma %v, want ≈ %v", c, m.Sigma[c], want)
		}
	}
}

func TestMomentsShiftedMaxwellian(t *testing.T) {
	g, err := New(2, 2, 2, [3]int{24, 24, 24}, [3]float64{10, 10, 10}, 6)
	if err != nil {
		t.Fatal(err)
	}
	u0 := [3]float64{1.0, -0.5, 0.25}
	sigma := 1.0
	g.Fill(func(x, y, z, ux, uy, uz float64) float64 {
		r2 := (ux-u0[0])*(ux-u0[0]) + (uy-u0[1])*(uy-u0[1]) + (uz-u0[2])*(uz-u0[2])
		return math.Exp(-r2 / (2 * sigma * sigma))
	})
	m := g.ComputeMoments()
	for c := 0; c < g.NCells(); c++ {
		for d := 0; d < 3; d++ {
			if math.Abs(m.MeanU[d][c]-u0[d]) > 0.01 {
				t.Fatalf("mean u[%d] = %v, want %v", d, m.MeanU[d][c], u0[d])
			}
		}
		if math.Abs(m.Sigma[c]-sigma) > 0.02 {
			t.Fatalf("sigma = %v, want %v", m.Sigma[c], sigma)
		}
	}
}

func TestMomentLinearityProperty(t *testing.T) {
	// Density is linear in f: scaling f scales ρ, leaves mean velocity and
	// dispersion unchanged.
	g, err := New(2, 2, 2, [3]int{8, 8, 8}, [3]float64{10, 10, 10}, 3)
	if err != nil {
		t.Fatal(err)
	}
	g.Fill(func(x, y, z, ux, uy, uz float64) float64 {
		return 1 + 0.5*math.Sin(ux)*math.Cos(uy+uz)
	})
	m1 := g.ComputeMoments()
	check := func(scale float64) bool {
		g2, _ := New(2, 2, 2, [3]int{8, 8, 8}, [3]float64{10, 10, 10}, 3)
		copy(g2.Data, g.Data)
		g2.Scale(scale)
		m2 := g2.ComputeMoments()
		for c := 0; c < g.NCells(); c++ {
			if math.Abs(m2.Density[c]-scale*m1.Density[c]) > 1e-5*(1+scale) {
				return false
			}
			if math.Abs(m2.Sigma[c]-m1.Sigma[c]) > 1e-4 {
				return false
			}
		}
		return true
	}
	f := func(raw float64) bool {
		s := 0.25 + math.Mod(math.Abs(raw), 4)
		return check(s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestMinValue(t *testing.T) {
	g := smallGrid(t)
	g.Fill(func(x, y, z, ux, uy, uz float64) float64 { return 1 })
	g.Data[1234] = -0.5
	if got := g.MinValue(); got != -0.5 {
		t.Fatalf("MinValue = %v", got)
	}
}

func TestParallelCellsCoversAll(t *testing.T) {
	g := smallGrid(t)
	seen := make([]int32, g.NCells())
	g.ParallelCells(func(ix, iy, iz int) {
		seen[g.CellIndex(ix, iy, iz)]++
	})
	for c, n := range seen {
		if n != 1 {
			t.Fatalf("cell %d visited %d times", c, n)
		}
	}
}

func TestDispersionTensorIsotropicGaussian(t *testing.T) {
	g, err := New(2, 2, 2, [3]int{20, 20, 20}, [3]float64{10, 10, 10}, 5)
	if err != nil {
		t.Fatal(err)
	}
	sigma := 1.2
	g.Fill(func(x, y, z, ux, uy, uz float64) float64 {
		return math.Exp(-(ux*ux + uy*uy + uz*uz) / (2 * sigma * sigma))
	})
	dt := g.ComputeDispersionTensor()
	for c := 0; c < g.NCells(); c++ {
		for d := 0; d < 3; d++ {
			if math.Abs(math.Sqrt(dt.S[d][c])-sigma) > 0.05 {
				t.Fatalf("diag %d = %v, want σ² of %v", d, dt.S[d][c], sigma)
			}
		}
		for d := 3; d < 6; d++ {
			if math.Abs(dt.S[d][c]) > 1e-6 {
				t.Fatalf("off-diagonal %d = %v, want 0", d, dt.S[d][c])
			}
		}
		if a := dt.Anisotropy(c); a > 1e-6 {
			t.Fatalf("anisotropy %v for isotropic f", a)
		}
	}
}

func TestDispersionTensorCorrelated(t *testing.T) {
	// A sheared Gaussian f ∝ exp(−(ux−uy)²/2 − …) has σ²xy > 0.
	g, err := New(2, 2, 2, [3]int{16, 16, 16}, [3]float64{10, 10, 10}, 5)
	if err != nil {
		t.Fatal(err)
	}
	g.Fill(func(x, y, z, ux, uy, uz float64) float64 {
		return math.Exp(-(ux*ux+uy*uy-1.2*ux*uy)/2 - uz*uz/2)
	})
	dt := g.ComputeDispersionTensor()
	if dt.S[3][0] <= 0.1 {
		t.Fatalf("σ²xy = %v, want strongly positive", dt.S[3][0])
	}
	if a := dt.Anisotropy(0); a < 0.05 {
		t.Fatalf("anisotropy %v too small for sheared f", a)
	}
	// Trace consistency with the scalar moments.
	m := g.ComputeMoments()
	tr := (dt.S[0][0] + dt.S[1][0] + dt.S[2][0]) / 3
	if math.Abs(math.Sqrt(tr)-m.Sigma[0]) > 1e-6*(1+m.Sigma[0]) {
		t.Fatalf("tensor trace %v vs scalar σ %v", math.Sqrt(tr), m.Sigma[0])
	}
}

// TestParallelCellsWorkerInvariance: moments and fills are identical for
// any pinned worker count (cells are disjoint), so a core budget resizing
// the reductions never changes results.
func TestParallelCellsWorkerInvariance(t *testing.T) {
	build := func(workers int) *Grid {
		g := smallGrid(t)
		g.SetWorkers(workers)
		g.Fill(func(x, y, z, ux, uy, uz float64) float64 {
			return 1 + 0.1*math.Sin(x+ux)*math.Cos(y-uy) + 0.01*z*uz
		})
		return g
	}
	g1 := build(1)
	g3 := build(3)
	for i := range g1.Data {
		if g1.Data[i] != g3.Data[i] {
			t.Fatalf("Data[%d]: 1-worker %v != 3-worker %v", i, g1.Data[i], g3.Data[i])
		}
	}
	m1 := g1.ComputeMoments()
	m3 := g3.ComputeMoments()
	for i := range m1.Density {
		if m1.Density[i] != m3.Density[i] || m1.Sigma[i] != m3.Sigma[i] {
			t.Fatalf("moments differ at cell %d across worker counts", i)
		}
	}
	// Clone carries the pinned count (a budgeted snapshot restores
	// budgeted); a fresh grid stays on the GOMAXPROCS default.
	if c := g1.Clone(); c.workers != 1 {
		t.Fatalf("clone workers %d, want 1", c.workers)
	}
	if g := smallGrid(t); g.workers != 0 {
		t.Fatalf("fresh grid workers %d, want 0 (GOMAXPROCS default)", g.workers)
	}
}
