package advect

import (
	"fmt"
	"math"
)

// The line updates below are the schemes as they were written before
// ghost-padded lines: every stencil value is fetched through an at(f, j)
// callback that applies the boundary condition per read. They are kept as
// the differential-test oracle for the production kernels, which must agree
// with them to the last bit. The limiter, the quintic and the MP5 interface
// reconstruction are shared; only the way stencil values reach them
// differs.

// refSLMPP5 is SL-MPP5 with per-read boundary callbacks. The embedded
// scheme supplies the limiter flags and limitFrac.
type refSLMPP5 struct {
	SLMPP5
	flux []float64
}

// Step advances a periodic line by CFL number c (any magnitude, any sign).
func (s *refSLMPP5) Step(f []float64, c float64) error {
	n := len(f)
	if n < 6 {
		return fmt.Errorf("slmpp5: line length %d < 6", n)
	}
	if math.IsNaN(c) || math.IsInf(c, 0) {
		return fmt.Errorf("slmpp5: invalid CFL %v", c)
	}
	if cap(s.flux) < n+1 {
		s.flux = make([]float64, n+1)
	}
	fl := s.flux[:n+1]
	s.Fluxes(f, c, fl, periodicAt)
	for i := 0; i < n; i++ {
		f[i] -= fl[i+1] - fl[i]
	}
	return nil
}

// periodicAt indexes f periodically.
func periodicAt(f []float64, i int) float64 { return f[mod(i, len(f))] }

// zeroAt indexes f with zero (vacuum) boundary values, used for the open
// velocity-space boundaries where the distribution function has compact
// support.
func zeroAt(f []float64, i int) float64 {
	if i < 0 || i >= len(f) {
		return 0
	}
	return f[i]
}

// StepOpen advances a line with vacuum (zero-inflow) boundaries, as used
// along the velocity axes: f has compact support and mass leaving the grid
// through the boundary is lost (and accounted by the caller).
func (s *refSLMPP5) StepOpen(f []float64, c float64) error {
	n := len(f)
	if n < 6 {
		return fmt.Errorf("slmpp5: line length %d < 6", n)
	}
	if cap(s.flux) < n+1 {
		s.flux = make([]float64, n+1)
	}
	fl := s.flux[:n+1]
	s.Fluxes(f, c, fl, zeroAt)
	for i := 0; i < n; i++ {
		f[i] -= fl[i+1] - fl[i]
	}
	return nil
}

// Fluxes fills fl[0..n] with the interface fluxes Φ_{i−1/2} for i = 0..n,
// using at(f, j) to fetch (possibly out-of-range) cell values. fl[i] is the
// mass crossing the left interface of cell i, positive rightward.
func (s *refSLMPP5) Fluxes(f []float64, c float64, fl []float64, at func([]float64, int) float64) {
	n := len(f)
	if c >= 0 {
		sh := int(math.Floor(c))
		xi := c - float64(sh)
		for i := 0; i <= n; i++ {
			// Interface i−1/2: whole upstream cells i−sh … i−1.
			sum := 0.0
			for j := i - sh; j <= i-1; j++ {
				sum += at(f, j)
			}
			k := i - sh - 1 // partially swept donor cell
			sum += s.fracRight(f, k, xi, at)
			fl[i] = sum
		}
		return
	}
	cc := -c
	sh := int(math.Floor(cc))
	eta := cc - float64(sh)
	for i := 0; i <= n; i++ {
		// Interface i−1/2 with leftward transport: whole cells i … i+sh−1
		// cross to the left, plus the left fraction of cell i+sh.
		sum := 0.0
		for j := i; j <= i+sh-1; j++ {
			sum += at(f, j)
		}
		k := i + sh
		sum += s.fracLeft(f, k, eta, at)
		fl[i] = -sum
	}
}

// fracRight returns the mass in the rightmost fraction ξ of cell k,
// reconstructed at fifth order and limited.
func (s *refSLMPP5) fracRight(f []float64, k int, xi float64, at func([]float64, int) float64) float64 {
	if xi <= 0 {
		return 0
	}
	fk := at(f, k)
	if xi >= 1 {
		return fk
	}
	// Primitive-function nodes: W_m = Σ of cells k−2 … k−3+m (W_0 = 0).
	var w [6]float64
	acc := 0.0
	for m := 1; m <= 5; m++ {
		acc += at(f, k-3+m)
		w[m] = acc
	}
	// Interface k+1/2 is node m = 3; departure point is t = 3 − ξ.
	raw := w[3] - quintic(&w, 3-xi)
	return s.limitFrac(raw, xi, fk,
		at(f, k-2), at(f, k-1), fk, at(f, k+1), at(f, k+2))
}

// fracLeft returns the mass in the leftmost fraction η of cell k.
func (s *refSLMPP5) fracLeft(f []float64, k int, eta float64, at func([]float64, int) float64) float64 {
	if eta <= 0 {
		return 0
	}
	fk := at(f, k)
	if eta >= 1 {
		return fk
	}
	var w [6]float64
	acc := 0.0
	for m := 1; m <= 5; m++ {
		acc += at(f, k-3+m)
		w[m] = acc
	}
	// Interface k−1/2 is node m = 2; integrate rightward a distance η.
	raw := quintic(&w, 2+eta) - w[2]
	return s.limitFrac(raw, eta, fk,
		at(f, k+2), at(f, k+1), fk, at(f, k-1), at(f, k-2))
}

// refMP5 is MP5+RK3 with a periodic read per stencil value. The embedded
// scheme supplies the stage buffers.
type refMP5 struct{ MP5 }

// Step advances a periodic line by one step of SSP-RK3 with CFL c (|c| ≤ 1).
func (m *refMP5) Step(f []float64, c float64) error {
	n := len(f)
	if n < 6 {
		return fmt.Errorf("mp5: line length %d < 6", n)
	}
	if math.Abs(c) > m.MaxCFL() {
		return fmt.Errorf("mp5: CFL %v exceeds %v", c, m.MaxCFL())
	}
	if cap(m.s1) < n {
		m.s1 = make([]float64, n)
		m.s2 = make([]float64, n)
		m.rhs = make([]float64, n)
	}
	s1, s2, rhs := m.s1[:n], m.s2[:n], m.rhs[:n]

	// Stage 1: s1 = f + Δt·L(f).
	m.rhsMP5(f, c, rhs)
	for i := range s1 {
		s1[i] = f[i] + rhs[i]
	}
	// Stage 2: s2 = 3/4 f + 1/4 (s1 + Δt·L(s1)).
	m.rhsMP5(s1, c, rhs)
	for i := range s2 {
		s2[i] = 0.75*f[i] + 0.25*(s1[i]+rhs[i])
	}
	// Stage 3: f = 1/3 f + 2/3 (s2 + Δt·L(s2)).
	m.rhsMP5(s2, c, rhs)
	for i := range f {
		f[i] = f[i]/3 + 2.0/3.0*(s2[i]+rhs[i])
	}
	return nil
}

// rhsMP5 computes Δt·L(f) = −c (f̂_{i+1/2} − f̂_{i−1/2}) for periodic f using
// the upwind-biased MP5 interface reconstruction.
func (m *refMP5) rhsMP5(f []float64, c float64, rhs []float64) {
	n := len(f)
	// fhat[i] is the interface value at i−1/2 (between cells i−1 and i).
	// Build it upwind: for c > 0 reconstruct from the left cell i−1's
	// stencil; for c < 0 mirror.
	prev := 0.0
	for i := 0; i <= n; i++ {
		var fh float64
		if c >= 0 {
			j := i - 1
			fh = reconstructMP5(
				periodicAt(f, j-2), periodicAt(f, j-1), periodicAt(f, j),
				periodicAt(f, j+1), periodicAt(f, j+2))
		} else {
			j := i
			fh = reconstructMP5(
				periodicAt(f, j+2), periodicAt(f, j+1), periodicAt(f, j),
				periodicAt(f, j-1), periodicAt(f, j-2))
		}
		if i > 0 {
			rhs[i-1] = -c * (fh - prev)
		}
		prev = fh
	}
}

// refUpwind1 is the donor-cell scheme with a periodic index per read.
type refUpwind1 struct{ Upwind1 }

// Step implements Scheme.
func (u *refUpwind1) Step(f []float64, c float64) error {
	n := len(f)
	if n < 2 {
		return fmt.Errorf("upwind1: line length %d < 2", n)
	}
	if math.Abs(c) > 1 {
		return fmt.Errorf("upwind1: CFL %v exceeds 1", c)
	}
	if cap(u.buf) < n {
		u.buf = make([]float64, n)
	}
	buf := u.buf[:n]
	copy(buf, f)
	if c >= 0 {
		for i := 0; i < n; i++ {
			f[i] = buf[i] - c*(buf[i]-buf[mod(i-1, n)])
		}
	} else {
		for i := 0; i < n; i++ {
			f[i] = buf[i] - c*(buf[mod(i+1, n)]-buf[i])
		}
	}
	return nil
}

// refLaxWendroff2 is Lax–Wendroff with a periodic index per read.
type refLaxWendroff2 struct{ LaxWendroff2 }

// Step implements Scheme.
func (l *refLaxWendroff2) Step(f []float64, c float64) error {
	n := len(f)
	if n < 3 {
		return fmt.Errorf("laxwendroff2: line length %d < 3", n)
	}
	if math.Abs(c) > 1 {
		return fmt.Errorf("laxwendroff2: CFL %v exceeds 1", c)
	}
	if cap(l.buf) < n {
		l.buf = make([]float64, n)
	}
	buf := l.buf[:n]
	copy(buf, f)
	for i := 0; i < n; i++ {
		fm := buf[mod(i-1, n)]
		fp := buf[mod(i+1, n)]
		f[i] = buf[i] - 0.5*c*(fp-fm) + 0.5*c*c*(fp-2*buf[i]+fm)
	}
	return nil
}
