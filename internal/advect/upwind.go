package advect

// Upwind1 is the first-order donor-cell scheme, the most diffusive baseline.
type Upwind1 struct{ buf []float64 }

// NewUpwind1 returns a first-order upwind scheme.
func NewUpwind1() *Upwind1 { return &Upwind1{} }

// Name implements Scheme.
func (u *Upwind1) Name() string { return "upwind1" }

// Stages implements Scheme.
func (u *Upwind1) Stages() int { return 1 }

// MaxCFL implements Scheme.
func (u *Upwind1) MaxCFL() float64 { return 1.0 }

// Clone implements Scheme.
func (u *Upwind1) Clone() Scheme { return &Upwind1{} }

// Step implements Scheme.
func (u *Upwind1) Step(f []float64, c float64) error {
	if err := checkLine("upwind1", len(f), 2, c, u.MaxCFL()); err != nil {
		return err
	}
	// Cell i of f is p[i+1].
	p := padLine(&u.buf, f, 1, true)
	if c >= 0 {
		for i := range f {
			f[i] = p[i+1] - c*(p[i+1]-p[i])
		}
	} else {
		for i := range f {
			f[i] = p[i+1] - c*(p[i+2]-p[i+1])
		}
	}
	return nil
}

// LaxWendroff2 is the classical second-order scheme (dispersive, produces
// oscillations at discontinuities — it is included to demonstrate what the
// MP limiter buys).
type LaxWendroff2 struct{ buf []float64 }

// NewLaxWendroff2 returns a Lax–Wendroff scheme.
func NewLaxWendroff2() *LaxWendroff2 { return &LaxWendroff2{} }

// Name implements Scheme.
func (l *LaxWendroff2) Name() string { return "laxwendroff2" }

// Stages implements Scheme.
func (l *LaxWendroff2) Stages() int { return 1 }

// MaxCFL implements Scheme.
func (l *LaxWendroff2) MaxCFL() float64 { return 1.0 }

// Clone implements Scheme.
func (l *LaxWendroff2) Clone() Scheme { return &LaxWendroff2{} }

// Step implements Scheme.
func (l *LaxWendroff2) Step(f []float64, c float64) error {
	if err := checkLine("laxwendroff2", len(f), 3, c, l.MaxCFL()); err != nil {
		return err
	}
	// Cell i of f is p[i+1].
	p := padLine(&l.buf, f, 1, true)
	for i := range f {
		fm, f0, fp := p[i], p[i+1], p[i+2]
		f[i] = f0 - 0.5*c*(fp-fm) + 0.5*c*c*(fp-2*f0+fm)
	}
	return nil
}
