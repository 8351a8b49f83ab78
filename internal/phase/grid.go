// Package phase implements the discretised six-dimensional phase-space
// distribution function of the massive neutrinos.
//
// The memory layout follows the paper's List 1: the spatial grid is the
// slow index and each spatial cell owns a complete, contiguous velocity-space
// cube. As §5.1.3 explains, this makes every velocity moment (density, mean
// velocity, velocity-dispersion tensor) a purely local reduction that needs
// no communication under spatial domain decomposition. Values are stored in
// float32 — the paper's Vlasov arrays are single precision — while all
// reductions accumulate in float64.
package phase

import (
	"fmt"
	"math"
	"runtime"
	"sync"
)

// Grid is a block of 6D phase space: NX×NY×NZ spatial cells, each holding an
// NU[0]×NU[1]×NU[2] velocity cube.
type Grid struct {
	NX, NY, NZ int
	NU         [3]int
	// Box is the physical extent covered by this block along x, y, z in
	// comoving h⁻¹Mpc (for a decomposed run, the sub-domain extent).
	Box [3]float64
	// UMax is the velocity-space half-extent: u ∈ [−UMax, +UMax) km/s.
	UMax float64
	// Data holds f(x, u) in row-major order
	// (((ix·NY+iy)·NZ+iz)·NU0+jx)·NU1+jy)·NU2+jz.
	Data []float32

	// workers pins the ParallelCells worker count (0 = GOMAXPROCS at call
	// time, the historical default); set through SetWorkers.
	workers int

	// partial is the reusable per-cell reduction scratch of TotalMass.
	// Clone drops it so a snapshot never shares scratch with the evolving
	// original.
	partial []float64
}

// SetWorkers pins the number of goroutines ParallelCells (and everything
// built on it: Fill, ComputeMoments, the moment maps) parallelises over
// (minimum 1). Without it the reductions read GOMAXPROCS at call time,
// invisible to any scheduler-owned core budget. Cells are disjoint, so the
// worker count never changes the computed values.
func (g *Grid) SetWorkers(n int) {
	if n < 1 {
		n = 1
	}
	g.workers = n
}

// New allocates a phase-space grid. All extents must be positive and the
// velocity extents at least 6 (the SL-MPP5 stencil width).
func New(nx, ny, nz int, nu [3]int, box [3]float64, umax float64) (*Grid, error) {
	if nx < 1 || ny < 1 || nz < 1 {
		return nil, fmt.Errorf("phase: invalid spatial extents %d×%d×%d", nx, ny, nz)
	}
	for d, n := range nu {
		if n < 6 {
			return nil, fmt.Errorf("phase: velocity extent NU[%d]=%d < 6", d, n)
		}
	}
	for d, b := range box {
		if b <= 0 {
			return nil, fmt.Errorf("phase: invalid box extent Box[%d]=%v", d, b)
		}
	}
	if umax <= 0 {
		return nil, fmt.Errorf("phase: invalid UMax %v", umax)
	}
	ncell := nx * ny * nz
	ncube := nu[0] * nu[1] * nu[2]
	return &Grid{
		NX: nx, NY: ny, NZ: nz, NU: nu, Box: box, UMax: umax,
		Data: make([]float32, ncell*ncube),
	}, nil
}

// Clone returns a deep copy sharing no storage with g — the value snapshot
// asynchronous checkpointing serialises while the original keeps evolving.
func (g *Grid) Clone() *Grid {
	c := *g
	c.Data = append([]float32(nil), g.Data...)
	c.partial = nil
	return &c
}

// NCells returns the number of spatial cells in the block.
func (g *Grid) NCells() int { return g.NX * g.NY * g.NZ }

// NCube returns the number of velocity cells per spatial cell.
func (g *Grid) NCube() int { return g.NU[0] * g.NU[1] * g.NU[2] }

// DX returns the spatial cell width along dimension d.
func (g *Grid) DX(d int) float64 {
	switch d {
	case 0:
		return g.Box[0] / float64(g.NX)
	case 1:
		return g.Box[1] / float64(g.NY)
	default:
		return g.Box[2] / float64(g.NZ)
	}
}

// DU returns the velocity cell width along velocity dimension d.
func (g *Grid) DU(d int) float64 { return 2 * g.UMax / float64(g.NU[d]) }

// U returns the velocity-cell-centre coordinate of index j along dimension d.
func (g *Grid) U(d, j int) float64 {
	return -g.UMax + (float64(j)+0.5)*g.DU(d)
}

// X returns the cell-centre spatial coordinate of index i along dimension d
// relative to the block origin.
func (g *Grid) X(d, i int) float64 {
	return (float64(i) + 0.5) * g.DX(d)
}

// CellIndex returns the flat spatial index of (ix, iy, iz).
func (g *Grid) CellIndex(ix, iy, iz int) int {
	return (ix*g.NY+iy)*g.NZ + iz
}

// VelIndexAlong returns the velocity index along axis d of the flat cube
// element e (jx·NU1+jy)·NU2+jz.
func (g *Grid) VelIndexAlong(d, e int) int {
	switch d {
	case 0:
		return e / (g.NU[1] * g.NU[2])
	case 1:
		return (e / g.NU[2]) % g.NU[1]
	default:
		return e % g.NU[2]
	}
}

// ColumnStart returns the flat spatial index of the first cell of the p-th
// line along axis d. Lines are numbered row-major over the two other axes:
// (iy, iz) for d = 0, (ix, iz) for d = 1, (ix, iy) for d = 2.
func (g *Grid) ColumnStart(d, p int) int {
	switch d {
	case 0:
		return p
	case 1:
		return p/g.NZ*g.NY*g.NZ + p%g.NZ
	default:
		return p * g.NZ
	}
}

// Cube returns the contiguous velocity cube of spatial cell (ix, iy, iz).
func (g *Grid) Cube(ix, iy, iz int) []float32 {
	nc := g.NCube()
	off := g.CellIndex(ix, iy, iz) * nc
	return g.Data[off : off+nc]
}

// CubeAt returns the velocity cube of a flat spatial index.
func (g *Grid) CubeAt(cell int) []float32 {
	nc := g.NCube()
	return g.Data[cell*nc : (cell+1)*nc]
}

// Fill evaluates f(x, y, z, ux, uy, uz) at every phase-space cell centre,
// with spatial coordinates relative to the block origin. Evaluation is
// parallel over spatial cells.
func (g *Grid) Fill(f func(x, y, z, ux, uy, uz float64) float64) {
	g.ParallelCells(func(ix, iy, iz int) {
		cube := g.Cube(ix, iy, iz)
		x, y, z := g.X(0, ix), g.X(1, iy), g.X(2, iz)
		idx := 0
		for jx := 0; jx < g.NU[0]; jx++ {
			ux := g.U(0, jx)
			for jy := 0; jy < g.NU[1]; jy++ {
				uy := g.U(1, jy)
				for jz := 0; jz < g.NU[2]; jz++ {
					cube[idx] = float32(f(x, y, z, ux, uy, g.U(2, jz)))
					idx++
				}
			}
		}
	})
}

// rangeWorkers resolves the effective worker count for items independent
// work items (0 = GOMAXPROCS at call time, clamped to items).
func (g *Grid) rangeWorkers(items int) int {
	nw := g.workers
	if nw == 0 {
		nw = runtime.GOMAXPROCS(0)
	}
	if nw > items {
		nw = items
	}
	return nw
}

// runCellRanges is the parallel dispatch path of the built-in reductions:
// [0, ncell) is split into one contiguous range per worker. Callers handle
// nw ≤ 1 serially first with a direct method call — no closure is created,
// which keeps steady-state single-worker reductions allocation-free.
func (g *Grid) runCellRanges(ncell, nw int, run func(lo, hi int)) {
	var wg sync.WaitGroup
	chunk := (ncell + nw - 1) / nw
	for w := 0; w < nw; w++ {
		lo, hi := w*chunk, (w+1)*chunk
		if hi > ncell {
			hi = ncell
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			run(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// ParallelCells runs fn over every spatial cell, using all CPUs unless
// SetWorkers pinned the count.
func (g *Grid) ParallelCells(fn func(ix, iy, iz int)) {
	ncell := g.NCells()
	nw := g.rangeWorkers(ncell)
	if nw <= 1 {
		for c := 0; c < ncell; c++ {
			fn(c/(g.NY*g.NZ), (c/g.NZ)%g.NY, c%g.NZ)
		}
		return
	}
	var wg sync.WaitGroup
	chunk := (ncell + nw - 1) / nw
	for w := 0; w < nw; w++ {
		lo, hi := w*chunk, (w+1)*chunk
		if hi > ncell {
			hi = ncell
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for c := lo; c < hi; c++ {
				fn(c/(g.NY*g.NZ), (c/g.NZ)%g.NY, c%g.NZ)
			}
		}(lo, hi)
	}
	wg.Wait()
}

// Moments holds the velocity moments of the distribution function on the
// spatial grid: the paper's dens, u*_mean fields of List 1 plus the scalar
// velocity dispersion used in Fig. 6.
type Moments struct {
	NX, NY, NZ int
	// Density is ρ(x) = ∫ f d³u (mass per comoving volume).
	Density []float64
	// MeanU is the density-weighted mean canonical velocity per component.
	MeanU [3][]float64
	// Sigma is the 1D velocity dispersion σ = sqrt(trace(σ²ᵢⱼ)/3).
	Sigma []float64
}

// ensureF64 returns s resized to n, reusing the backing array when it fits.
func ensureF64(s []float64, n int) []float64 {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]float64, n)
}

// ComputeMoments reduces the velocity cubes to their first three moments.
// The reduction is local per spatial cell — the design property the paper's
// domain decomposition (§5.1.3) is built around — and parallel over cells.
// It allocates a fresh Moments every call; step loops that recompute moments
// every step should use ComputeMomentsInto with a reused buffer instead.
func (g *Grid) ComputeMoments() *Moments {
	return g.ComputeMomentsInto(nil)
}

// ComputeMomentsInto is ComputeMoments writing into m, reusing its slices
// when they fit (m == nil allocates a new one). Every cell of every field is
// written, so a recycled Moments never leaks stale values. With a warm m and
// one worker the reduction is allocation-free.
func (g *Grid) ComputeMomentsInto(m *Moments) *Moments {
	ncell := g.NCells()
	if m == nil {
		m = &Moments{}
	}
	m.NX, m.NY, m.NZ = g.NX, g.NY, g.NZ
	m.Density = ensureF64(m.Density, ncell)
	m.Sigma = ensureF64(m.Sigma, ncell)
	for d := 0; d < 3; d++ {
		m.MeanU[d] = ensureF64(m.MeanU[d], ncell)
	}
	du3 := g.DU(0) * g.DU(1) * g.DU(2)
	nw := g.rangeWorkers(ncell)
	if nw <= 1 {
		g.momentsRange(m, 0, ncell, du3)
		return m
	}
	g.runCellRanges(ncell, nw, func(lo, hi int) {
		g.momentsRange(m, lo, hi, du3)
	})
	return m
}

func (g *Grid) momentsRange(m *Moments, lo, hi int, du3 float64) {
	du0, du1, du2 := g.DU(0), g.DU(1), g.DU(2)
	for cell := lo; cell < hi; cell++ {
		cube := g.CubeAt(cell)
		var mass, px, py, pz, uxx, uyy, uzz float64
		idx := 0
		for jx := 0; jx < g.NU[0]; jx++ {
			ux := -g.UMax + (float64(jx)+0.5)*du0
			for jy := 0; jy < g.NU[1]; jy++ {
				uy := -g.UMax + (float64(jy)+0.5)*du1
				for jz := 0; jz < g.NU[2]; jz++ {
					f := float64(cube[idx])
					idx++
					if f == 0 {
						continue
					}
					uz := -g.UMax + (float64(jz)+0.5)*du2
					mass += f
					px += f * ux
					py += f * uy
					pz += f * uz
					uxx += f * ux * ux
					uyy += f * uy * uy
					uzz += f * uz * uz
				}
			}
		}
		m.Density[cell] = mass * du3
		if mass > 0 {
			mx, my, mz := px/mass, py/mass, pz/mass
			m.MeanU[0][cell] = mx
			m.MeanU[1][cell] = my
			m.MeanU[2][cell] = mz
			tr := uxx/mass - mx*mx + uyy/mass - my*my + uzz/mass - mz*mz
			if tr < 0 {
				tr = 0
			}
			m.Sigma[cell] = math.Sqrt(tr / 3)
		} else {
			m.MeanU[0][cell] = 0
			m.MeanU[1][cell] = 0
			m.MeanU[2][cell] = 0
			m.Sigma[cell] = 0
		}
	}
}

// TotalMass returns ∫ f d³x d³u over the block. The per-cell partial-sum
// scratch is owned by the grid and reused across calls.
func (g *Grid) TotalMass() float64 {
	dv := g.DX(0) * g.DX(1) * g.DX(2) * g.DU(0) * g.DU(1) * g.DU(2)
	// Accumulate per spatial cell in parallel, then reduce.
	ncell := g.NCells()
	g.partial = ensureF64(g.partial, ncell)
	partial := g.partial
	nw := g.rangeWorkers(ncell)
	if nw <= 1 {
		g.massRange(partial, 0, ncell)
	} else {
		g.runCellRanges(ncell, nw, func(lo, hi int) {
			g.massRange(partial, lo, hi)
		})
	}
	total := 0.0
	for _, p := range partial {
		total += p
	}
	return total * dv
}

func (g *Grid) massRange(partial []float64, lo, hi int) {
	for cell := lo; cell < hi; cell++ {
		cube := g.CubeAt(cell)
		s := 0.0
		for _, v := range cube {
			s += float64(v)
		}
		partial[cell] = s
	}
}

// MinValue returns the minimum of f over the block (negative values indicate
// a positivity violation).
func (g *Grid) MinValue() float32 {
	if len(g.Data) == 0 {
		return 0
	}
	mn := g.Data[0]
	for _, v := range g.Data {
		if v < mn {
			mn = v
		}
	}
	return mn
}

// Scale multiplies every value by s (used to normalise initial conditions to
// a target mean density).
func (g *Grid) Scale(s float64) {
	fs := float32(s)
	for i := range g.Data {
		g.Data[i] *= fs
	}
}

// DispersionTensor holds the full symmetric velocity-dispersion tensor
// σ²ᵢⱼ = ⟨uᵢuⱼ⟩ − ⟨uᵢ⟩⟨uⱼ⟩ per spatial cell, ordered
// (xx, yy, zz, xy, xz, yz). The scalar Sigma of Moments is
// sqrt((σ²xx+σ²yy+σ²zz)/3).
type DispersionTensor struct {
	NX, NY, NZ int
	S          [6][]float64
}

// ComputeDispersionTensor reduces the cubes to the six independent
// components of σ²ᵢⱼ — the anisotropy diagnostic of collisionless
// collapse (isotropic for the initial Fermi-Dirac state, anisotropic once
// phase mixing starts).
func (g *Grid) ComputeDispersionTensor() *DispersionTensor {
	return g.ComputeDispersionTensorInto(nil)
}

// ComputeDispersionTensorInto is ComputeDispersionTensor writing into dt,
// reusing its component slices when they fit (dt == nil allocates a new
// one). Every cell of every component is written, so a recycled tensor never
// leaks stale values.
func (g *Grid) ComputeDispersionTensorInto(dt *DispersionTensor) *DispersionTensor {
	ncell := g.NCells()
	if dt == nil {
		dt = &DispersionTensor{}
	}
	dt.NX, dt.NY, dt.NZ = g.NX, g.NY, g.NZ
	for i := range dt.S {
		dt.S[i] = ensureF64(dt.S[i], ncell)
	}
	nw := g.rangeWorkers(ncell)
	if nw <= 1 {
		g.dispersionRange(dt, 0, ncell)
		return dt
	}
	g.runCellRanges(ncell, nw, func(lo, hi int) {
		g.dispersionRange(dt, lo, hi)
	})
	return dt
}

func (g *Grid) dispersionRange(dt *DispersionTensor, lo, hi int) {
	du0, du1, du2 := g.DU(0), g.DU(1), g.DU(2)
	for cell := lo; cell < hi; cell++ {
		cube := g.CubeAt(cell)
		var mass float64
		var m1 [3]float64
		var m2 [6]float64 // xx, yy, zz, xy, xz, yz
		idx := 0
		for jx := 0; jx < g.NU[0]; jx++ {
			ux := -g.UMax + (float64(jx)+0.5)*du0
			for jy := 0; jy < g.NU[1]; jy++ {
				uy := -g.UMax + (float64(jy)+0.5)*du1
				for jz := 0; jz < g.NU[2]; jz++ {
					f := float64(cube[idx])
					idx++
					if f == 0 {
						continue
					}
					uz := -g.UMax + (float64(jz)+0.5)*du2
					mass += f
					m1[0] += f * ux
					m1[1] += f * uy
					m1[2] += f * uz
					m2[0] += f * ux * ux
					m2[1] += f * uy * uy
					m2[2] += f * uz * uz
					m2[3] += f * ux * uy
					m2[4] += f * ux * uz
					m2[5] += f * uy * uz
				}
			}
		}
		if mass <= 0 {
			for i := range dt.S {
				dt.S[i][cell] = 0
			}
			continue
		}
		mx, my, mz := m1[0]/mass, m1[1]/mass, m1[2]/mass
		dt.S[0][cell] = m2[0]/mass - mx*mx
		dt.S[1][cell] = m2[1]/mass - my*my
		dt.S[2][cell] = m2[2]/mass - mz*mz
		dt.S[3][cell] = m2[3]/mass - mx*my
		dt.S[4][cell] = m2[4]/mass - mx*mz
		dt.S[5][cell] = m2[5]/mass - my*mz
	}
}

// Anisotropy returns a scalar anisotropy measure per cell: the RMS of the
// off-diagonal components over the mean diagonal, zero for an isotropic
// distribution.
func (dt *DispersionTensor) Anisotropy(cell int) float64 {
	diag := (dt.S[0][cell] + dt.S[1][cell] + dt.S[2][cell]) / 3
	if diag <= 0 {
		return 0
	}
	off := dt.S[3][cell]*dt.S[3][cell] + dt.S[4][cell]*dt.S[4][cell] + dt.S[5][cell]*dt.S[5][cell]
	return math.Sqrt(off/3) / diag
}
