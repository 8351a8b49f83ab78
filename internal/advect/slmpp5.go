package advect

import (
	"fmt"
	"math"
)

// SLMPP5 is the paper's single-stage, spatially fifth-order, monotonicity-
// and positivity-preserving conservative semi-Lagrangian scheme (SL-MPP5,
// Tanaka, Yoshikawa, Minoshima & Yoshida 2017).
//
// The update is written in conservative flux form
//
//	f_i^{n+1} = f_i^n − (Φ_{i+1/2} − Φ_{i−1/2}),
//
// where Φ_{i+1/2} is the total mass (in units of cell averages) crossing the
// interface during Δt. For CFL number c = s + ξ (integer shift s, fraction
// ξ ∈ [0,1)) the flux is the sum of the s whole upstream cells plus a
// fractional contribution from the partially swept cell. The fractional part
// is obtained by interpolating the primitive function W(x) = ∫f dx with a
// quintic Lagrange polynomial through six interface nodes — the conservative
// semi-Lagrangian reconstruction of Qiu & Christlieb (2010) — which yields
// fifth-order spatial accuracy from a single flux evaluation and no CFL
// restriction.
//
// Monotonicity: the swept-cell average Φ_frac/ξ is constrained by the
// Suresh–Huynh (1997) MP limiter bounds built from the upwind stencil, which
// suppresses oscillations while retaining full order at smooth extrema.
// Positivity: the fractional flux is clipped to the donor cell's available
// mass, which (for the constant-velocity lines produced by directional
// splitting) guarantees f ≥ 0 exactly while conserving mass to round-off.
type SLMPP5 struct {
	pad, flux []float64
	// Limiting can be disabled for order-of-accuracy studies.
	DisableMP bool
	DisablePP bool
}

// NewSLMPP5 returns the scheme with MP and PP limiting enabled.
func NewSLMPP5() *SLMPP5 { return &SLMPP5{} }

// Name implements Scheme.
func (s *SLMPP5) Name() string { return "slmpp5" }

// Stages implements Scheme: a single flux evaluation per step.
func (s *SLMPP5) Stages() int { return 1 }

// MaxCFL implements Scheme: the semi-Lagrangian update is unconditionally
// stable (0 denotes no restriction).
func (s *SLMPP5) MaxCFL() float64 { return 0 }

// Clone implements Scheme.
func (s *SLMPP5) Clone() Scheme {
	return &SLMPP5{DisableMP: s.DisableMP, DisablePP: s.DisablePP}
}

// Step advances a periodic line by CFL number c (any sign, ⌈|c|⌉ ≤ len(f)).
func (s *SLMPP5) Step(f []float64, c float64) error { return s.step(f, c, true) }

// StepOpen advances a line with vacuum (zero-inflow) boundaries, as used
// along the velocity axes: f has compact support and mass leaving the grid
// through the boundary is lost (and accounted by the caller).
func (s *SLMPP5) StepOpen(f []float64, c float64) error { return s.step(f, c, false) }

// step copies f into the scheme's padded scratch line with periodic or
// vacuum ghosts and advances f from it.
func (s *SLMPP5) step(f []float64, c float64, periodic bool) error {
	if err := checkLine("slmpp5", len(f), 6, c, 0); err != nil {
		return err
	}
	g := ghostWidth(c)
	s.advance(f, padLine(&s.pad, f, g, periodic), g, c)
	return nil
}

// StepPadded advances the interior p[g : len(p)−g] of a line whose g ghost
// cells on each side the caller has filled (for example from a neighbouring
// rank's planes). A step with CFL number c reads
//
//	w(c) = ⌈|c|⌉ + 2
//
// ghost cells on each side: for c > 0 the interface fluxes reach down to
// cell i−⌊c⌋−3 and for c < 0 up to cell i+⌊|c|⌋+2, for interfaces
// i = 0…n. StepPadded rejects g < w(c), like a non-finite c or
// ⌈|c|⌉ > n, with p unchanged; it never writes the ghosts.
func (s *SLMPP5) StepPadded(p []float64, g int, c float64) error {
	n := len(p) - 2*g
	if err := checkLine("slmpp5", n, 1, c, 0); err != nil {
		return err
	}
	if w := ghostWidth(c); g < w {
		return fmt.Errorf("slmpp5: %d ghost cells < %d needed at CFL %v", g, w, c)
	}
	s.advance(p[g:g+n], p, g, c)
	return nil
}

// ghostWidth is w(c) = ⌈|c|⌉ + 2, the ghost cells a step at CFL c reads on
// each side of the line.
func ghostWidth(c float64) int { return int(math.Ceil(math.Abs(c))) + 2 }

// advance applies the conservative update f_i −= Φ_{i+1/2} − Φ_{i−1/2} to
// the n = len(f) cells whose values, with their ghosts, p holds from
// offset g. fl[i] = Φ_{i−1/2} is the mass crossing the left interface of
// cell i, positive rightward. f may alias p[g : g+n]: every flux is formed
// before any cell changes.
func (s *SLMPP5) advance(f, p []float64, g int, c float64) {
	n := len(f)
	if cap(s.flux) < n+1 {
		s.flux = make([]float64, n+1)
	}
	fl := s.flux[:n+1]
	if c >= 0 {
		sh := int(math.Floor(c))
		xi := c - float64(sh)
		for i := 0; i <= n; i++ {
			// Interface i−1/2: whole upstream cells i−sh … i−1.
			sum := 0.0
			for _, v := range p[g+i-sh : g+i] {
				sum += v
			}
			k := g + i - sh - 1 // partially swept donor cell
			sum += s.fracRight(p, k, xi)
			fl[i] = sum
		}
	} else {
		cc := -c
		sh := int(math.Floor(cc))
		eta := cc - float64(sh)
		for i := 0; i <= n; i++ {
			// Interface i−1/2 with leftward transport: whole cells
			// i … i+sh−1 cross to the left, plus the left fraction of cell
			// i+sh.
			sum := 0.0
			for _, v := range p[g+i : g+i+sh] {
				sum += v
			}
			k := g + i + sh
			sum += s.fracLeft(p, k, eta)
			fl[i] = -sum
		}
	}
	for i := 0; i < n; i++ {
		f[i] -= fl[i+1] - fl[i]
	}
}

// fracRight returns the mass in the rightmost fraction ξ of cell k of the
// padded line p, reconstructed at fifth order and limited.
func (s *SLMPP5) fracRight(p []float64, k int, xi float64) float64 {
	if xi <= 0 {
		return 0
	}
	fk := p[k]
	if xi >= 1 {
		return fk
	}
	// Primitive-function nodes: W_m = Σ of cells k−2 … k−3+m (W_0 = 0).
	var w [6]float64
	acc := 0.0
	for m := 1; m <= 5; m++ {
		acc += p[k-3+m]
		w[m] = acc
	}
	// Interface k+1/2 is node m = 3; departure point is t = 3 − ξ.
	raw := w[3] - quintic(&w, 3-xi)
	return s.limitFrac(raw, xi, fk, p[k-2], p[k-1], fk, p[k+1], p[k+2])
}

// fracLeft returns the mass in the leftmost fraction η of cell k of the
// padded line p.
func (s *SLMPP5) fracLeft(p []float64, k int, eta float64) float64 {
	if eta <= 0 {
		return 0
	}
	fk := p[k]
	if eta >= 1 {
		return fk
	}
	var w [6]float64
	acc := 0.0
	for m := 1; m <= 5; m++ {
		acc += p[k-3+m]
		w[m] = acc
	}
	// Interface k−1/2 is node m = 2; integrate rightward a distance η.
	raw := quintic(&w, 2+eta) - w[2]
	return s.limitFrac(raw, eta, fk, p[k+2], p[k+1], fk, p[k-1], p[k-2])
}

// limitFrac applies the MP constraint to the swept average raw/xi and the
// positivity clip to the resulting flux. The stencil (m2,m1,c0,p1,p2) is
// ordered in the upwind sense: m* lie on the side the information comes
// from (for a left-edge fraction the physical stencil is reflected).
func (s *SLMPP5) limitFrac(raw, xi, avail, m2, m1, c0, p1, p2 float64) float64 {
	fbar := raw / xi
	if !s.DisableMP {
		// Fully-discrete monotonicity requires the Suresh–Huynh steepness
		// parameter to honour α·ξ ≤ 1−ξ (for RK method-of-lines SH use the
		// equivalent CFL ≤ 1/(1+α)); with the fixed α = 4 a single-stage
		// update overshoots by O(1%) on steps. This CFL-adaptive α is the
		// single-stage modification of Tanaka et al. (2017).
		alpha := (1 - xi) / math.Max(xi, 1e-12)
		if alpha > 4 {
			alpha = 4
		}
		fbar = mpLimitAlpha(fbar, m2, m1, c0, p1, p2, alpha)
	}
	flx := fbar * xi
	if !s.DisablePP {
		if flx < 0 {
			flx = 0
		}
		if flx > avail {
			flx = avail
		}
	}
	return flx
}

// mpLimit applies the Suresh–Huynh monotonicity-preserving constraint to the
// candidate interface/swept value v given the upwind-ordered stencil
// (f_{j-2}, f_{j-1}, f_j, f_{j+1}, f_{j+2}) where f_j is the donor cell,
// with the standard steepness parameter α = 4 (method-of-lines usage).
func mpLimit(v, fm2, fm1, f0, fp1, fp2 float64) float64 {
	return mpLimitAlpha(v, fm2, fm1, f0, fp1, fp2, 4.0)
}

// mpLimitAlpha is mpLimit with an explicit steepness parameter α.
func mpLimitAlpha(v, fm2, fm1, f0, fp1, fp2, alpha float64) float64 {
	const eps = 1e-20
	fMP := f0 + minmod2(fp1-f0, alpha*(f0-fm1))
	if (v-f0)*(v-fMP) <= eps {
		return v
	}
	dm1 := fm2 - 2*fm1 + f0
	d0 := fm1 - 2*f0 + fp1
	dp1 := f0 - 2*fp1 + fp2
	dMp := minmod4(4*d0-dp1, 4*dp1-d0, d0, dp1)
	dMm := minmod4(4*d0-dm1, 4*dm1-d0, d0, dm1)
	fUL := f0 + alpha*(f0-fm1)
	fAV := 0.5 * (f0 + fp1)
	fMD := fAV - 0.5*dMp
	fLC := f0 + 0.5*(f0-fm1) + (4.0/3.0)*dMm
	fmin := math.Max(math.Min(math.Min(f0, fp1), fMD), math.Min(math.Min(f0, fUL), fLC))
	fmax := math.Min(math.Max(math.Max(f0, fp1), fMD), math.Max(math.Max(f0, fUL), fLC))
	return median(v, fmin, fmax)
}

// quintic evaluates the degree-5 Lagrange polynomial through the nodes
// (m, w[m]) for m = 0..5 at position t.
func quintic(w *[6]float64, t float64) float64 {
	// Precomputed denominators Π_{j≠m}(m−j): for m=0..5 they are
	// −120, 24, −12, 12, −24, 120.
	var den = [6]float64{-120, 24, -12, 12, -24, 120}
	// Products (t−j).
	var d [6]float64
	for j := 0; j < 6; j++ {
		d[j] = t - float64(j)
	}
	full := 1.0
	exactNode := -1
	for j := 0; j < 6; j++ {
		if d[j] == 0 {
			exactNode = j
		}
	}
	if exactNode >= 0 {
		return w[exactNode]
	}
	for j := 0; j < 6; j++ {
		full *= d[j]
	}
	out := 0.0
	for m := 0; m < 6; m++ {
		out += w[m] * (full / d[m]) / den[m]
	}
	return out
}
