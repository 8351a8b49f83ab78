// Benchmarks regenerating every table and figure of the paper's evaluation,
// plus component and ablation benches for the design choices DESIGN.md calls
// out. Run with:
//
//	go test -bench=. -benchmem
//
// Table/figure benches print their artefact once (the same rows the paper
// reports) and then time the underlying workload.
package vlasov6d

import (
	"context"
	"fmt"
	"math"
	"os"
	"sync"
	"testing"

	"vlasov6d/internal/advect"
	"vlasov6d/internal/analysis"
	"vlasov6d/internal/cosmo"
	"vlasov6d/internal/fft"
	"vlasov6d/internal/hybrid"
	"vlasov6d/internal/machine"
	"vlasov6d/internal/nbody"
	"vlasov6d/internal/phase"
	"vlasov6d/internal/plasma"
	"vlasov6d/internal/poisson"
	"vlasov6d/internal/tree"
	"vlasov6d/internal/vlasov"
)

var printOnce sync.Once

// ---------------------------------------------------------------- Table 1

// benchTable1 times one direction of the Table 1 study: the production
// SL-MPP5 axis sweep of vlasov.Solver on a 6³ × 16³ grid.
func benchTable1(b *testing.B, dir string) {
	b.Helper()
	s, err := vlasov.NewTable1Solver(6, 16)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	r, err := vlasov.MeasureTable1Sweep(s, dir, b.N)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(r.NsPerCellSweep, "ns/cell-sweep")
	b.ReportMetric(r.GFlops, "Gflops")
}

func BenchmarkTable1_ux(b *testing.B) { benchTable1(b, "ux") }
func BenchmarkTable1_uy(b *testing.B) { benchTable1(b, "uy") }
func BenchmarkTable1_uz(b *testing.B) { benchTable1(b, "uz") }
func BenchmarkTable1_x(b *testing.B)  { benchTable1(b, "x") }
func BenchmarkTable1_y(b *testing.B)  { benchTable1(b, "y") }
func BenchmarkTable1_z(b *testing.B)  { benchTable1(b, "z") }

// BenchmarkTable1Full prints the complete Table 1 reproduction once.
func BenchmarkTable1Full(b *testing.B) {
	s, err := vlasov.NewTable1Solver(6, 16)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := vlasov.MeasureTable1(s, 1)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			printOnce.Do(func() { vlasov.WriteTable1(os.Stdout, rows) })
		}
	}
}

// ------------------------------------------------------- Tables 2–4, Fig 7

var table3Once, table4Once, fig7Once, ttsOnce sync.Once

// BenchmarkTable3Weak regenerates the weak-scaling table from the machine
// model (printed once) and times the model evaluation.
func BenchmarkTable3Weak(b *testing.B) {
	m, err := machine.New(machine.Defaults())
	if err != nil {
		b.Fatal(err)
	}
	table3Once.Do(func() { _ = m.WriteTable3(os.Stdout) })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.WeakScaling(machine.WeakSequence()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable4Strong regenerates the strong-scaling table.
func BenchmarkTable4Strong(b *testing.B) {
	m, err := machine.New(machine.Defaults())
	if err != nil {
		b.Fatal(err)
	}
	table4Once.Do(func() { _ = m.WriteTable4(os.Stdout) })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, g := range []string{"S", "M", "L", "H"} {
			if _, err := m.StrongScaling(machine.Group(g)); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFig7 regenerates the per-step wall-time decomposition series.
func BenchmarkFig7(b *testing.B) {
	m, err := machine.New(machine.Defaults())
	if err != nil {
		b.Fatal(err)
	}
	fig7Once.Do(func() { m.WriteFig7(os.Stdout) })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := m.Fig7Series()
		if len(rows) != len(machine.Table2) {
			b.Fatal("short series")
		}
	}
}

// BenchmarkTTS regenerates the §7.2 time-to-solution comparison.
func BenchmarkTTS(b *testing.B) {
	m, err := machine.New(machine.Defaults())
	if err != nil {
		b.Fatal(err)
	}
	ttsOnce.Do(func() { m.WriteTTS(os.Stdout, machine.DefaultTTS()) })
	h, err := machine.FindRun("H1024")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := m.TimeToSolution(h, machine.DefaultTTS())
		if res.SpeedupVsTianNu < 1 {
			b.Fatal("speedup claim lost")
		}
	}
}

// ----------------------------------------------------------- Figs 4, 5, 6

// fig4Sim builds the small hybrid run used by the figure benches.
func fig4Sim(b *testing.B, mnu float64, nuParticles bool) *hybrid.Simulation {
	b.Helper()
	cfg := hybrid.Config{
		Par:         cosmo.Planck2015(mnu),
		Box:         200,
		NGrid:       8,
		NU:          8,
		NPartSide:   8,
		PMFactor:    2,
		Seed:        3,
		NuParticles: nuParticles,
	}
	sim, err := hybrid.New(cfg, 1.0/11)
	if err != nil {
		b.Fatal(err)
	}
	return sim
}

// BenchmarkFig4Workload times one full hybrid step of the Fig. 4 run
// (the projected-density-map workload is dominated by stepping).
func BenchmarkFig4Workload(b *testing.B) {
	sim := fig4Sim(b, 0.4, false)
	dt := sim.Cfg.Par.CosmicTime(sim.A) * 0.02
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sim.Step(dt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5Workload times the velocity-plane extraction (Fig. 5) from a
// live grid.
func BenchmarkFig5Workload(b *testing.B) {
	sim := fig4Sim(b, 0.4, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := analysis.VelocityPlane(sim.Grid, 4, 4, 4); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6Moments times the moment maps on both sides of the Fig. 6
// comparison: Vlasov moments and particle moments.
func BenchmarkFig6Moments(b *testing.B) {
	simV := fig4Sim(b, 0.4, false)
	simP := fig4Sim(b, 0.4, true)
	n3 := [3]int{simV.Grid.NX, simV.Grid.NY, simV.Grid.NZ}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = simV.Grid.ComputeMoments()
		if _, err := analysis.MomentsFromParticles(simP.NuPart, n3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig8Projection times the multi-scale projection of Fig. 8.
func BenchmarkFig8Projection(b *testing.B) {
	sim := fig4Sim(b, 0.4, false)
	m := sim.Grid.ComputeMoments()
	n3 := [3]int{sim.Grid.NX, sim.Grid.NY, sim.Grid.NZ}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := analysis.Project(m.Density, n3, 2); err != nil {
			b.Fatal(err)
		}
	}
}

// --------------------------------------------- scheme ablations (§5.2 claim)

// benchScheme1D times one advection step per scheme on a fixed line — the
// single-stage vs three-stage cost argument of §5.2.
func benchScheme1D(b *testing.B, name string, cflMax float64) {
	s, err := advect.New(name)
	if err != nil {
		b.Fatal(err)
	}
	line := make([]float64, 512)
	for i := range line {
		line[i] = 2 + math.Sin(2*math.Pi*float64(i)/512)
	}
	b.SetBytes(int64(8 * len(line)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Step(line, cflMax); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSchemeSLMPP5(b *testing.B)  { benchScheme1D(b, "slmpp5", 0.9) }
func BenchmarkSchemeMP5RK3(b *testing.B)  { benchScheme1D(b, "mp5", 0.9) }
func BenchmarkSchemeUpwind1(b *testing.B) { benchScheme1D(b, "upwind1", 0.9) }

// BenchmarkSchemeSLMPP5LargeCFL demonstrates the unique SL capability: a
// CFL-3 step in one stage (the three-stage comparator simply cannot).
func BenchmarkSchemeSLMPP5LargeCFL(b *testing.B) { benchScheme1D(b, "slmpp5", 3.2) }

// ------------------------------------------------- component micro-benches

// BenchmarkVlasovStep6D times one full 6D split step (eq. 5).
func BenchmarkVlasovStep6D(b *testing.B) {
	g, err := phase.New(8, 8, 8, [3]int{8, 8, 8}, [3]float64{100, 100, 100}, 3000)
	if err != nil {
		b.Fatal(err)
	}
	g.Fill(func(x, y, z, ux, uy, uz float64) float64 {
		return math.Exp(-(ux*ux + uy*uy + uz*uz) / (2 * 800 * 800))
	})
	s, err := vlasov.New(g, "slmpp5")
	if err != nil {
		b.Fatal(err)
	}
	var acc [3][]float64
	for d := 0; d < 3; d++ {
		acc[d] = make([]float64, g.NCells())
		for c := range acc[d] {
			acc[d][c] = 30
		}
	}
	b.SetBytes(int64(4 * len(g.Data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Step(0.001, 1.0, acc); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(g.Data))*9*float64(b.N)/b.Elapsed().Seconds()/1e6,
		"Mcell-sweeps/s")
}

// BenchmarkMoments times the per-cell velocity-moment reduction.
func BenchmarkMoments(b *testing.B) {
	g, err := phase.New(8, 8, 8, [3]int{8, 8, 8}, [3]float64{100, 100, 100}, 3000)
	if err != nil {
		b.Fatal(err)
	}
	g.Fill(func(x, y, z, ux, uy, uz float64) float64 { return 1 })
	b.SetBytes(int64(4 * len(g.Data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.ComputeMoments()
	}
}

// BenchmarkFFT3 times the 3D transform at PM-mesh scale.
func BenchmarkFFT3(b *testing.B) {
	n := 64
	f3, err := fft.NewFFT3(n, n, n)
	if err != nil {
		b.Fatal(err)
	}
	data := make([]complex128, n*n*n)
	for i := range data {
		data[i] = complex(float64(i%17), 0)
	}
	b.SetBytes(int64(16 * len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := f3.Forward(data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPoissonSolve times the PM potential solve.
func BenchmarkPoissonSolve(b *testing.B) {
	s, err := poisson.NewSolver([3]int{64, 64, 64}, [3]float64{200, 200, 200})
	if err != nil {
		b.Fatal(err)
	}
	src := make([]float64, s.Size())
	for i := range src {
		src[i] = math.Sin(float64(i))
	}
	phi := make([]float64, s.Size())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Solve(src, 1, phi); err != nil {
			b.Fatal(err)
		}
	}
}

// phantomParticles builds a clustered particle set for the kernel benches.
func phantomParticles(b *testing.B, n int) *nbody.Particles {
	b.Helper()
	p, err := nbody.NewParticles(n, 1, [3]float64{100, 100, 100})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < n; i++ {
		p.Pos[0][i] = math.Mod(float64(i)*17.77, 100)
		p.Pos[1][i] = math.Mod(float64(i)*5.33, 100)
		p.Pos[2][i] = math.Mod(float64(i)*29.1, 100)
	}
	return p
}

// BenchmarkPhantomGRAPEBatched times the tabulated branch-light force
// kernel (the paper's 1.2×10⁹ interactions/s path).
func BenchmarkPhantomGRAPEBatched(b *testing.B) { benchTreeKernel(b, false) }

// BenchmarkPhantomGRAPEScalar times the erfc-per-pair baseline (the paper's
// 2.4×10⁷ interactions/s path).
func BenchmarkPhantomGRAPEScalar(b *testing.B) { benchTreeKernel(b, true) }

func benchTreeKernel(b *testing.B, scalar bool) {
	p := phantomParticles(b, 3000)
	tr, err := tree.Build(p, tree.Options{Theta: 0.5, RSplit: 5, Soft: 0.1, Scalar: scalar})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = tr.Accel([3]float64{50, 50, 50})
	}
}

// BenchmarkHybridStep times one fully-coupled step of the end-to-end system.
func BenchmarkHybridStep(b *testing.B) {
	sim := fig4Sim(b, 0.4, false)
	dt := sim.Cfg.Par.CosmicTime(sim.A) * 0.01
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sim.Step(dt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBudgetedSweep runs the same multi-job Landau grid two ways —
// oversubscribed (every job defaults to GOMAXPROCS intra-step workers, so
// N concurrent jobs spawn N×GOMAXPROCS goroutines per sweep) and budgeted
// (the scheduler's CoreBudget divides the machine among the live jobs, so
// job-level × cell-level parallelism composes to GOMAXPROCS). Work is
// identical in both modes; the delta is pure scheduling overhead, and the
// budgeted mode must be no slower than the baseline it replaces.
func BenchmarkBudgetedSweep(b *testing.B) {
	const njobs = 4
	newJobs := func() []BatchJob {
		jobs := make([]BatchJob, njobs)
		for i := range jobs {
			jobs[i] = BatchJob{
				Name:  fmt.Sprintf("landau-%d", i),
				Until: 5,
				New: func() (Solver, error) {
					s, err := NewPlasmaSolverWithScheme(64, 128, 4*math.Pi, 8, "slmpp5")
					if err != nil {
						return nil, err
					}
					s.LandauInit(0.01, 0.5, 1)
					return s, nil
				},
			}
		}
		return jobs
	}
	for _, mode := range []struct {
		name string
		opts []BatchOption
	}{
		{"oversubscribed", nil},
		{"budgeted", []BatchOption{WithBatchCoreBudget(0)}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			ctx := context.Background()
			opts := append([]BatchOption{WithBatchWorkers(njobs)}, mode.opts...)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				results, err := RunBatch(ctx, newJobs(), opts...)
				if err != nil {
					b.Fatal(err)
				}
				for _, r := range results {
					if r.Status != JobDone {
						b.Fatalf("job %s: %v (%v)", r.Name, r.Status, r.Err)
					}
				}
			}
		})
	}
}

// BenchmarkPlasmaStep times a 1D1V step (the §8 extension workload).
func BenchmarkPlasmaStep(b *testing.B) {
	s, err := plasma.New(64, 256, 4*math.Pi, 8)
	if err != nil {
		b.Fatal(err)
	}
	s.LandauInit(0.01, 0.5, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Step(0.05); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEq9Resolution times the effective-resolution calculator (trivial
// but keeps eq. (9) wired into the bench surface).
func BenchmarkEq9Resolution(b *testing.B) {
	sum := 0.0
	for i := 0; i < b.N; i++ {
		sum += machine.EffectiveResolution(1200, 13824, 100)
	}
	if sum < 0 {
		fmt.Fprintln(os.Stderr, sum)
	}
}

// ---------------------------------------------------------------- ablations

// BenchmarkAblationPMOnly times the hybrid step with the tree disabled —
// the control for the TreePM force-split design choice.
func BenchmarkAblationPMOnly(b *testing.B) {
	cfg := hybrid.Config{
		Par: cosmo.Planck2015(0.4), Box: 200,
		NGrid: 8, NU: 8, NPartSide: 8, PMFactor: 2, Seed: 3,
		NoTree: true,
	}
	sim, err := hybrid.New(cfg, 1.0/11)
	if err != nil {
		b.Fatal(err)
	}
	dt := cfg.Par.CosmicTime(sim.A) * 0.02
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sim.Step(dt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationSchemes compares the full 6D step cost across advection
// schemes (the §5.2 single-stage argument at system level). SL-MPP5's
// single flux stage vs MP5's three shows up directly in the step time.
func BenchmarkAblationSchemes(b *testing.B) {
	for _, scheme := range []string{"slmpp5", "mp5"} {
		b.Run(scheme, func(b *testing.B) {
			g, err := phase.New(6, 6, 6, [3]int{8, 8, 8}, [3]float64{100, 100, 100}, 3000)
			if err != nil {
				b.Fatal(err)
			}
			g.Fill(func(x, y, z, ux, uy, uz float64) float64 {
				return math.Exp(-(ux*ux + uy*uy + uz*uz) / (2 * 800 * 800))
			})
			s, err := vlasov.New(g, scheme)
			if err != nil {
				b.Fatal(err)
			}
			var acc [3][]float64
			for d := 0; d < 3; d++ {
				acc[d] = make([]float64, g.NCells())
				for c := range acc[d] {
					acc[d][c] = 20
				}
			}
			// Keep CFL < 1 so MP5 is admissible.
			dt := 0.4 * g.DX(0) / g.UMax
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.Step(dt, 1.0, acc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
