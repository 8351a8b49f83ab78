// Package advect implements the one-dimensional advection solvers at the
// heart of the paper's Vlasov method (§5.2). The directional-splitting
// approach (eq. 3–5) reduces the 6D Vlasov equation to sweeps of the linear
// advection equation ∂f/∂t + v ∂f/∂x = 0 with a velocity v that is constant
// along each sweep line.
//
// The schemes provided are
//
//   - SLMPP5 — the paper's novel scheme (Tanaka et al. 2017): a conservative
//     semi-Lagrangian flux of spatially fifth order, limited by the
//     Suresh–Huynh monotonicity-preserving (MP) constraints and a
//     positivity-preserving flux clip, advanced with a SINGLE flux stage per
//     step and no CFL restriction.
//   - MP5 — the conventional comparator: Suresh–Huynh MP5 reconstruction with
//     three-stage TVD Runge-Kutta time integration (three flux evaluations
//     per step, CFL ≤ 1).
//   - Upwind1, LaxWendroff2 — first- and second-order baselines.
//
// All schemes advance periodic lines in place, and SLMPP5.StepOpen lines
// with vacuum boundaries. Either way the line is first copied into a
// ghost-padded scratch line, so the boundary is data and the flux kernels
// read a plain slice; the decomposed Vlasov drift (package decomp) fills
// the ghosts from neighbouring ranks instead and calls SLMPP5.StepPadded,
// which runs the same flux kernel.
package advect

import (
	"fmt"
	"math"
)

// Scheme advances the 1D linear advection equation on a periodic line.
// Implementations keep private scratch buffers and are therefore not safe
// for concurrent use; call Clone to obtain per-worker instances.
type Scheme interface {
	// Name identifies the scheme in tables and benchmarks.
	Name() string
	// Stages returns the number of flux evaluations per time step (the
	// paper's cost argument: SL-MPP5 = 1, MP5-RK3 = 3).
	Stages() int
	// MaxCFL returns the largest stable CFL number (0 means unconditional).
	MaxCFL() float64
	// Step advances f in place by one step with CFL number c = v·Δt/Δx.
	// The line is treated as periodic. A non-finite c, or one beyond the
	// scheme's limit, is an error and leaves f unchanged.
	Step(f []float64, c float64) error
	// Clone returns an independent instance for use by another goroutine.
	Clone() Scheme
}

// New constructs a scheme by name: "slmpp5", "mp5", "upwind1", "laxwendroff2".
func New(name string) (Scheme, error) {
	switch name {
	case "slmpp5":
		return NewSLMPP5(), nil
	case "mp5":
		return NewMP5(), nil
	case "upwind1":
		return NewUpwind1(), nil
	case "laxwendroff2":
		return NewLaxWendroff2(), nil
	}
	return nil, fmt.Errorf("advect: unknown scheme %q", name)
}

// Names lists the registered scheme names.
func Names() []string { return []string{"slmpp5", "mp5", "upwind1", "laxwendroff2"} }

// minmod2 returns the minmod of two arguments.
func minmod2(a, b float64) float64 {
	if a*b <= 0 {
		return 0
	}
	if a > 0 {
		if a < b {
			return a
		}
		return b
	}
	if a > b {
		return a
	}
	return b
}

// minmod4 returns the minmod of four arguments.
func minmod4(a, b, c, d float64) float64 {
	return minmod2(minmod2(a, b), minmod2(c, d))
}

// median returns the median of three values.
func median(a, b, c float64) float64 {
	return a + minmod2(b-a, c-a)
}

// checkLine is the argument check shared by every line step: the line holds
// at least min cells and the CFL number c is finite. A scheme with a
// stability limit (maxCFL > 0) also needs |c| ≤ maxCFL; the unconditionally
// stable SL-MPP5 (maxCFL = 0) needs ⌈|c|⌉ ≤ n, which bounds its whole-cell
// shift, and with it the ghost width, by the line length.
func checkLine(name string, n, min int, c, maxCFL float64) error {
	if n < min {
		return fmt.Errorf("%s: line length %d < %d", name, n, min)
	}
	if math.IsNaN(c) || math.IsInf(c, 0) {
		return fmt.Errorf("%s: invalid CFL %v", name, c)
	}
	if maxCFL > 0 {
		if math.Abs(c) > maxCFL {
			return fmt.Errorf("%s: CFL %v exceeds %v", name, c, maxCFL)
		}
	} else if math.Ceil(math.Abs(c)) > float64(n) {
		return fmt.Errorf("%s: CFL %v shifts past the %d-cell line", name, c, n)
	}
	return nil
}

// padLine copies the line f into the scratch *buf, growing it if needed,
// with g ghost cells on each side: periodic images f[j mod n] when periodic,
// zeros (vacuum) otherwise. It returns the padded line, whose cell i is at
// index g+i.
func padLine(buf *[]float64, f []float64, g int, periodic bool) []float64 {
	n := len(f)
	if cap(*buf) < n+2*g {
		*buf = make([]float64, n+2*g)
	}
	p := (*buf)[:n+2*g]
	copy(p[g:], f)
	for k := 0; k < g; k++ {
		lo, hi := 0.0, 0.0
		if periodic {
			lo, hi = f[mod(k-g, n)], f[mod(k, n)]
		}
		p[k], p[g+n+k] = lo, hi
	}
	return p
}

// mod returns i modulo n in [0, n).
func mod(i, n int) int {
	i %= n
	if i < 0 {
		i += n
	}
	return i
}
