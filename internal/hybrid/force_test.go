package hybrid

import (
	"math"
	"math/rand"
	"testing"

	"vlasov6d/internal/nbody"
	"vlasov6d/internal/phase"
	"vlasov6d/internal/units"
)

// forceSim builds a pure N-body simulation at a = 1 (Poisson coefficient
// 4πG, tree force unscaled) on a box³ domain with a pmMesh³ PM mesh, and
// installs p as its CDM component in place of the generated one.
func forceSim(t *testing.T, box float64, pmMesh int, noTree bool, p *nbody.Particles) *Simulation {
	t.Helper()
	c := smallConfig()
	c.Box = box
	c.NPartSide = 2
	c.PMMesh = pmMesh
	c.NoNeutrino = true
	c.NoTree = noTree
	s, err := New(c, 1)
	if err != nil {
		t.Fatal(err)
	}
	if s.Cfg.NoTree != noTree {
		t.Fatalf("tree cutoff does not fit box %v with PM mesh %d", box, pmMesh)
	}
	s.installParticles(p)
	return s
}

// pairAccel returns the x-acceleration of particle 0 of an isolated pair at
// separation sep along x, and Newton's G·m/sep² for comparison.
func pairAccel(t *testing.T, sep float64, noTree bool) (ax, want float64) {
	t.Helper()
	const box = 256.0
	p, err := nbody.NewParticles(2, 5.0, [3]float64{box, box, box})
	if err != nil {
		t.Fatal(err)
	}
	p.Pos[0][0], p.Pos[1][0], p.Pos[2][0] = 128-sep/2, 128, 128
	p.Pos[0][1], p.Pos[1][1], p.Pos[2][1] = 128+sep/2, 128, 128
	s := forceSim(t, box, 64, noTree, p)
	if err := s.computeForces(); err != nil {
		t.Fatal(err)
	}
	return s.accPart[0][0], units.G * p.Mass / (sep * sep)
}

func TestForcePairMatchesNewton(t *testing.T) {
	// PM + tree must reproduce Newton across the split scale (r_s = 5 here):
	// below, at, and above it. Periodic images at sep ≪ box are negligible.
	for _, sep := range []float64{2, 5, 12, 25} {
		ax, want := pairAccel(t, sep, false)
		if ax <= 0 {
			t.Fatalf("sep %v: attraction expected, got %v", sep, ax)
		}
		if rel := math.Abs(ax-want) / want; rel > 0.06 {
			t.Fatalf("sep %v: TreePM force %v, Newton %v (err %.1f%%)", sep, ax, want, 100*rel)
		}
	}
}

func TestForceNoTreeMissesShortRange(t *testing.T) {
	// The control experiment for the split: pure PM underestimates the
	// force well below the mesh scale but matches far above it.
	axClose, wantClose := pairAccel(t, 2, true)
	if axClose > 0.7*wantClose {
		t.Fatalf("pure PM should lose short-range force: %v vs %v", axClose, wantClose)
	}
	axFar, wantFar := pairAccel(t, 25, true)
	if rel := math.Abs(axFar-wantFar) / wantFar; rel > 0.06 {
		t.Fatalf("pure PM should be exact at long range: %v vs %v", axFar, wantFar)
	}
}

func TestForceNetZero(t *testing.T) {
	// Σ m·a must vanish: CIC deposit and interpolation are adjoint and the
	// tree force is antisymmetric.
	const box = 100.0
	p, err := nbody.NewParticles(64, 2.0, [3]float64{box, box, box})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < p.N; i++ {
		for d := 0; d < 3; d++ {
			p.Pos[d][i] = rng.Float64() * box
		}
	}
	s := forceSim(t, box, 16, false, p)
	if err := s.computeForces(); err != nil {
		t.Fatal(err)
	}
	for d := 0; d < 3; d++ {
		sum, norm := 0.0, 0.0
		for _, a := range s.accPart[d] {
			sum += a
			norm += math.Abs(a)
		}
		if norm == 0 {
			t.Fatalf("dim %d: no force at all", d)
		}
		if frac := math.Abs(sum) / norm; frac > 1e-6 {
			t.Fatalf("dim %d: net force fraction %v", d, frac)
		}
	}
}

func TestForceNeutrinoOverdensityPulls(t *testing.T) {
	// A lone CDM particle has no other particle to fall toward; a
	// Vlasov-grid overdensity, entering the shared PM density through
	// NeutrinoDensityPM, must pull it straight toward itself.
	const box = 64.0
	p, err := nbody.NewParticles(1, 1.0, [3]float64{box, box, box})
	if err != nil {
		t.Fatal(err)
	}
	p.Pos[0][0], p.Pos[1][0], p.Pos[2][0] = 16, 36, 36
	s := forceSim(t, box, 32, false, p)
	g, err := phase.New(8, 8, 8, [3]int{6, 6, 6}, [3]float64{box, box, box}, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Overdense spatial cell (4,4,4), centred at (36,36,36): Δx = +20 <
	// L/2, so the minimum-image pull is in +x.
	g.Fill(func(x, y, z, ux, uy, uz float64) float64 {
		if x > 32 && x < 40 && y > 32 && y < 40 && z > 32 && z < 40 {
			return 50
		}
		return 1
	})
	if err := s.installGrid(g); err != nil {
		t.Fatal(err)
	}
	if err := s.computeForces(); err != nil {
		t.Fatal(err)
	}
	ax, ay, az := s.accPart[0][0], s.accPart[1][0], s.accPart[2][0]
	if ax <= 0 {
		t.Fatalf("particle not pulled toward the neutrino overdensity: a = (%v, %v, %v)", ax, ay, az)
	}
	// The particle sits on the overdensity's y and z centre lines.
	if math.Abs(ay) > 1e-6*ax || math.Abs(az) > 1e-6*ax {
		t.Fatalf("transverse pull off the centre line: a = (%v, %v, %v)", ax, ay, az)
	}
}
