// Package vlasov advances the six-dimensional Vlasov equation (eq. 1) with
// the directional-splitting sequence of eq. (5): three velocity-space
// half-steps, three position-space full steps, and the mirrored velocity
// half-steps, each a set of one-dimensional advections handled by the
// SL-MPP5 scheme of package advect.
//
//   - Position sweeps: ∂f/∂t + (u_i/a²)·∂f/∂x_i = 0, CFL depends only on the
//     velocity index; lines are periodic across the box.
//   - Velocity sweeps: ∂f/∂t − (∂φ/∂x_i)·∂f/∂u_i = 0, CFL is the per-cell
//     acceleration; lines are open (vacuum) at the velocity boundary, and
//     mass crossing it is recorded as BoundaryLoss.
//
// Lines are gathered from the List-1 layout into per-worker float64 buffers
// (the arithmetic runs in double precision, storage is float32 as in the
// paper's mixed-precision design) and scattered back. Work is parallelised
// over independent lines with one scheme clone per worker.
package vlasov

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"vlasov6d/internal/advect"
	"vlasov6d/internal/phase"
)

// Solver advances a phase-space grid in time.
type Solver struct {
	g       *phase.Grid
	proto   advect.Scheme
	workers int

	// BoundaryLoss accumulates the mass that has left the velocity grid
	// through its open boundary (in f·d³x·d³u units), a diagnostic for
	// choosing UMax.
	BoundaryLoss float64

	mu sync.Mutex // guards BoundaryLoss accumulation from workers

	// pool holds per-worker sweep scratch (gather line + scheme clones),
	// grown on demand and reused across steps so steady-state stepping
	// allocates nothing.
	pool []*worker
	// cfl is the reusable per-velocity-index CFL table of DriftAxis.
	cfl []float64
	// kg/dg carry the geometry of the sweep in flight: written before the
	// serial or parallel range calls of one axis, read-only during them
	// (axes advance strictly one at a time).
	kg kickGeom
	dg driftGeom
}

// kickGeom is the line geometry of one velocity-axis kick sweep.
type kickGeom struct {
	dt, du               float64
	acc                  []float64
	nLine, stride, nPerp int
	d                    int
}

// driftGeom is the line geometry of one spatial-axis drift sweep.
type driftGeom struct {
	cfl        []float64
	nLine      int
	cellStride int
	ncube      int
	d          int
}

// New creates a solver using the named advection scheme ("slmpp5" for the
// paper's method; "mp5", "upwind1", "laxwendroff2" for comparisons).
func New(g *phase.Grid, scheme string) (*Solver, error) {
	if g == nil {
		return nil, fmt.Errorf("vlasov: nil grid")
	}
	s, err := advect.New(scheme)
	if err != nil {
		return nil, err
	}
	return &Solver{g: g, proto: s, workers: runtime.GOMAXPROCS(0)}, nil
}

// Grid returns the underlying phase-space grid.
func (s *Solver) Grid() *phase.Grid { return s.g }

// SetWorkers pins the worker count (tests use 1 for determinism).
func (s *Solver) SetWorkers(n int) {
	if n < 1 {
		n = 1
	}
	s.workers = n
}

// SchemeName reports the advection scheme in use.
func (s *Solver) SchemeName() string { return s.proto.Name() }

// CFLNumbers returns the maximum position-space and velocity-space CFL
// numbers for time step dt at scale factor a with acceleration fields acc
// (three arrays over spatial cells).
func (s *Solver) CFLNumbers(dt, a float64, acc [3][]float64) (cx, cu float64) {
	g := s.g
	uMax := g.UMax
	for d := 0; d < 3; d++ {
		c := uMax * dt / (a * a * g.DX(d))
		if c > cx {
			cx = c
		}
		if acc[d] == nil {
			continue
		}
		aMax := 0.0
		for _, v := range acc[d] {
			if av := math.Abs(v); av > aMax {
				aMax = av
			}
		}
		if c := aMax * dt / (2 * g.DU(d)); c > cu {
			cu = c
		}
	}
	return cx, cu
}

// SuggestDT returns a time step that keeps the position-space CFL at
// cflX (the semi-Lagrangian scheme has no stability limit, but accuracy and
// the ghost-exchange width favour CFL ≲ 1) and the velocity-space half-kick
// CFL at cflU.
func (s *Solver) SuggestDT(a float64, acc [3][]float64, cflX, cflU float64) float64 {
	g := s.g
	dt := math.Inf(1)
	for d := 0; d < 3; d++ {
		dtx := cflX * g.DX(d) * a * a / g.UMax
		if dtx < dt {
			dt = dtx
		}
		if acc[d] == nil {
			continue
		}
		aMax := 0.0
		for _, v := range acc[d] {
			if av := math.Abs(v); av > aMax {
				aMax = av
			}
		}
		if aMax > 0 {
			dtu := 2 * cflU * g.DU(d) / aMax
			if dtu < dt {
				dt = dtu
			}
		}
	}
	return dt
}

// Step advances one full time step of eq. (5):
// u-kicks(dt/2) → x-drifts(dt) → u-kicks(dt/2).
// acc holds the acceleration −∇φ per spatial cell (flat index). The paper's
// sequence applies the same potential in both half-kicks; the hybrid driver
// refreshes acc between steps.
func (s *Solver) Step(dt, a float64, acc [3][]float64) error {
	if err := s.KickHalf(dt, acc); err != nil {
		return err
	}
	if err := s.Drift(dt, a); err != nil {
		return err
	}
	return s.KickHalf(dt, acc)
}

// KickHalf applies the three velocity-space advections for dt/2. Every
// acc[d] is checked before any axis moves.
func (s *Solver) KickHalf(dt float64, acc [3][]float64) error {
	for d := 0; d < 3; d++ {
		if err := s.checkAcc(d, acc[d]); err != nil {
			return err
		}
	}
	for d := 0; d < 3; d++ {
		if err := s.KickAxis(d, dt/2, acc[d]); err != nil {
			return err
		}
	}
	return nil
}

// Drift applies the three position-space advections for dt.
func (s *Solver) Drift(dt, a float64) error {
	for d := 0; d < 3; d++ {
		if err := s.DriftAxis(d, dt, a); err != nil {
			return err
		}
	}
	return nil
}

// checkAcc validates a velocity axis and its per-cell acceleration array.
func (s *Solver) checkAcc(d int, acc []float64) error {
	if d < 0 || d > 2 {
		return fmt.Errorf("vlasov: velocity axis %d out of range [0, 3)", d)
	}
	if n := s.g.NCells(); len(acc) != n {
		return fmt.Errorf("vlasov: acc[%d] length %d != %d cells", d, len(acc), n)
	}
	return nil
}

// KickAxis advects every velocity cube along velocity axis d (0, 1, 2 for
// ux, uy, uz) for dt with the per-cell CFL  c = acc·dt / Δu  (the minus
// sign of eq. (4) is carried by the advection velocity being
// −∂φ/∂x = acc). acc holds one acceleration per spatial cell.
func (s *Solver) KickAxis(d int, dt float64, acc []float64) error {
	if err := s.checkAcc(d, acc); err != nil {
		return err
	}
	g := s.g
	nu := g.NU
	// Line geometry within a cube for axis d.
	var nLine, stride, nPerp int
	switch d {
	case 0:
		nLine, stride, nPerp = nu[0], nu[1]*nu[2], nu[1]*nu[2]
	case 1:
		nLine, stride, nPerp = nu[1], nu[2], nu[0]*nu[2]
	default:
		nLine, stride, nPerp = nu[2], 1, nu[0]*nu[1]
	}
	s.kg = kickGeom{dt: dt, du: g.DU(d), acc: acc, nLine: nLine, stride: stride, nPerp: nPerp, d: d}
	ncell := g.NCells()
	nw := s.clampWorkers(ncell)
	if nw <= 1 {
		w := s.worker(0)
		err := s.kickRange(w, 0, ncell)
		s.addLoss(w)
		return err
	}
	return s.runRanges(ncell, nw, (*Solver).kickRange)
}

// kickRange advects the velocity cubes of spatial cells [lo, hi) along the
// axis described by s.kg.
func (s *Solver) kickRange(w *worker, lo, hi int) error {
	g := s.g
	kg := &s.kg
	nu := g.NU
	for cell := lo; cell < hi; cell++ {
		c := kg.acc[cell] * kg.dt / kg.du
		if c == 0 {
			continue
		}
		cube := g.CubeAt(cell)
		loss := 0.0
		for p := 0; p < kg.nPerp; p++ {
			off := perpOffset(kg.d, p, nu)
			line := w.line[:kg.nLine]
			for i := 0; i < kg.nLine; i++ {
				line[i] = float64(cube[off+i*kg.stride])
			}
			var before float64
			for _, v := range line {
				before += v
			}
			if err := w.open.StepOpen(line, c); err != nil {
				return err
			}
			var after float64
			for _, v := range line {
				after += v
			}
			loss += before - after
			for i := 0; i < kg.nLine; i++ {
				cube[off+i*kg.stride] = float32(line[i])
			}
		}
		if loss != 0 {
			w.loss += loss // raw Σf; converted to mass units in addLoss
		}
	}
	return nil
}

// perpOffset returns the cube offset of the p-th perpendicular line for
// velocity axis d.
func perpOffset(d, p int, nu [3]int) int {
	switch d {
	case 0: // lines vary jx; perp = (jy, jz)
		return p // jy*nu2 + jz, stride nu1*nu2 applied per element
	case 1: // lines vary jy; perp = (jx, jz)
		jx, jz := p/nu[2], p%nu[2]
		return jx*nu[1]*nu[2] + jz
	default: // lines vary jz; perp = (jx, jy)
		return p * nu[2]
	}
}

// DriftAxis advects along spatial axis d (0, 1, 2 for x, y, z) for dt at
// scale factor a with per-velocity-index CFL c = u_d·dt/(a²·Δx). Lines are
// periodic across the (single-block) box; the decomposed version exchanges
// ghosts in package decomp before calling the same kernels.
func (s *Solver) DriftAxis(d int, dt, a float64) error {
	if d < 0 || d > 2 {
		return fmt.Errorf("vlasov: spatial axis %d out of range [0, 3)", d)
	}
	g := s.g
	dx := g.DX(d)
	nu := g.NU
	// Precompute CFL per velocity index along d into the reusable table.
	nud := nu[d]
	if cap(s.cfl) < nud {
		s.cfl = make([]float64, nud)
	}
	cfl := s.cfl[:nud]
	for j := 0; j < nud; j++ {
		cfl[j] = g.U(d, j) * dt / (a * a * dx)
	}
	// Spatial line geometry.
	var nLine, cellStride, nPerpSpace int
	switch d {
	case 0:
		nLine, cellStride, nPerpSpace = g.NX, g.NY*g.NZ, g.NY*g.NZ
	case 1:
		nLine, cellStride, nPerpSpace = g.NY, g.NZ, g.NX*g.NZ
	default:
		nLine, cellStride, nPerpSpace = g.NZ, 1, g.NX*g.NY
	}
	if nLine < 6 {
		return fmt.Errorf("vlasov: spatial extent %d along axis %d < 6 (SL-MPP5 stencil)", nLine, d)
	}
	s.dg = driftGeom{cfl: cfl, nLine: nLine, cellStride: cellStride, ncube: g.NCube(), d: d}
	// Parallelise over perpendicular spatial columns; each column sweeps all
	// velocity elements.
	nw := s.clampWorkers(nPerpSpace)
	if nw <= 1 {
		w := s.worker(0)
		err := s.driftRange(w, 0, nPerpSpace)
		s.addLoss(w)
		return err
	}
	return s.runRanges(nPerpSpace, nw, (*Solver).driftRange)
}

// driftRange advects perpendicular spatial columns [lo, hi) along the axis
// described by s.dg.
func (s *Solver) driftRange(w *worker, lo, hi int) error {
	g := s.g
	dg := &s.dg
	str := dg.cellStride * dg.ncube
	for p := lo; p < hi; p++ {
		base := g.ColumnStart(dg.d, p)
		line := w.line[:dg.nLine]
		for e := 0; e < dg.ncube; e++ {
			c := dg.cfl[g.VelIndexAlong(dg.d, e)]
			if c == 0 {
				continue
			}
			off := base*dg.ncube + e
			for i := 0; i < dg.nLine; i++ {
				line[i] = float64(g.Data[off+i*str])
			}
			if err := w.per.Step(line, c); err != nil {
				return err
			}
			for i := 0; i < dg.nLine; i++ {
				g.Data[off+i*str] = float32(line[i])
			}
		}
	}
	return nil
}

// worker carries per-goroutine scratch.
type worker struct {
	line []float64
	per  advect.Scheme // periodic stepper
	open *advect.SLMPP5
	loss float64
}

func (s *Solver) newWorker() *worker {
	g := s.g
	maxLen := g.NX
	for _, n := range []int{g.NY, g.NZ, g.NU[0], g.NU[1], g.NU[2]} {
		if n > maxLen {
			maxLen = n
		}
	}
	return &worker{
		line: make([]float64, maxLen),
		per:  s.proto.Clone(),
		open: advect.NewSLMPP5(),
	}
}

// worker returns worker k's scratch, growing the pool on demand. Workers
// persist for the life of the solver (the grid's extents are fixed), so
// steady-state stepping stops re-cloning schemes and reallocating lines.
func (s *Solver) worker(k int) *worker {
	for len(s.pool) <= k {
		s.pool = append(s.pool, s.newWorker())
	}
	return s.pool[k]
}

// clampWorkers bounds the sweep parallelism by the number of independent
// work items.
func (s *Solver) clampWorkers(items int) int {
	nw := s.workers
	if nw > items {
		nw = items
	}
	if nw < 1 {
		nw = 1
	}
	return nw
}

// runRanges is the parallel dispatch path of one axis sweep: [0, n) splits
// into one contiguous range per worker, each running the range method with
// its pooled scratch; the first reported error wins and every worker's
// boundary loss is folded in. Callers handle nw ≤ 1 with a direct serial
// range call — no goroutines or closures — which keeps the steady-state
// single-worker step allocation-free.
func (s *Solver) runRanges(n, nw int, run func(*Solver, *worker, int, int) error) error {
	var wg sync.WaitGroup
	var firstErr error
	var errMu sync.Mutex
	chunk := (n + nw - 1) / nw
	for k := 0; k < nw; k++ {
		lo, hi := k*chunk, (k+1)*chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(w *worker, lo, hi int) {
			defer wg.Done()
			if err := run(s, w, lo, hi); err != nil {
				errMu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				errMu.Unlock()
			}
			s.addLoss(w)
		}(s.worker(k), lo, hi)
	}
	wg.Wait()
	return firstErr
}

func (s *Solver) addLoss(w *worker) {
	if w.loss == 0 {
		return
	}
	g := s.g
	// w.loss is a raw Σf over lost cell values; one phase-space cell has
	// volume Δx³·Δu³, giving the escaped mass.
	vol := g.DX(0) * g.DX(1) * g.DX(2)
	du3 := g.DU(0) * g.DU(1) * g.DU(2)
	s.mu.Lock()
	s.BoundaryLoss += w.loss * vol * du3
	s.mu.Unlock()
	w.loss = 0
}
