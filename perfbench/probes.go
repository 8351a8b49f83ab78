package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"path/filepath"
	"time"

	"vlasov6d/internal/advect"
	"vlasov6d/internal/catalog"
	"vlasov6d/internal/hybrid"
	"vlasov6d/internal/phase"
	"vlasov6d/internal/plasma"
	"vlasov6d/internal/runner"
	"vlasov6d/internal/tree"
	"vlasov6d/internal/vlasov"
)

// Computed cost of one SL-MPP5 cell-sweep on the smooth path (sub-cell
// CFL, MP limiter not engaged), counted from internal/advect/slmpp5.go:
// primitive-function sums 5, quintic Lagrange 35 (6 offsets, 5 products,
// 6×(div, mul, div, add)), raw flux 1, swept average 1, CFL-adaptive α 3,
// MP bound test 8, flux 1, conservative update 2. The grid is float32 and
// each sweep reads and writes every cell once.
const (
	flopsPerCellSweep = 56
	bytesPerCellSweep = 8
)

// prober times calls into each layer's public functions on a workload's
// own state, after its timed segment. Metrics already set by the workload
// itself are never overwritten.
type prober struct {
	cfg config
	res *result
	tr  *tracer
}

func (p *prober) set(name string, v float64, unit string, n int) {
	if _, ok := p.res.Metrics[name]; !ok {
		p.res.set(name, v, unit, n)
	}
}

// op times fn with the probe budget and records it as span name.
func (p *prober) op(name string, fn func() error) (float64, int, error) {
	t0 := time.Now()
	sec, n, err := sampleOp(p.cfg.sizes.probe, 5, fn)
	p.tr.add(0, 0, name, t0, time.Since(t0))
	if err != nil {
		return 0, 0, fmt.Errorf("probe %s: %w", name, err)
	}
	return sec, n, nil
}

// finish adds the host bandwidth reference and writes the run's spans next
// to its report.
func (p *prober) finish() error {
	p.triadReference(hostMemory())
	return p.tr.write(filepath.Join(filepath.Dir(p.cfg.workDir),
		fmt.Sprintf("%s-spans-seed%d.json", p.cfg.workload, p.cfg.seed)))
}

// advectLine times one SL-MPP5 line step on a copy of line at CFL c and
// records ns per cell under name. The sign of c alternates so the line
// stays bounded however long the probe runs.
func (p *prober) advectLine(name string, line []float64, c float64, open bool) error {
	f := append([]float64(nil), line...)
	s := advect.NewSLMPP5()
	step := s.Step
	if open {
		step = s.StepOpen
	}
	sec, n, err := p.op(name, func() error { c = -c; return step(f, c) })
	if err != nil {
		return err
	}
	p.set(name, 1e9*sec/float64(len(f)), "ns", n)
	return nil
}

// hybridLayers probes the advect (8-cell lines), vlasov, phase, poisson,
// nbody, tree, snapio and catalog layers on a hybrid simulation.
func (p *prober) hybridLayers(sim *hybrid.Simulation, spec catalog.JobSpec) error {
	g := sim.Grid
	dt := sim.SuggestDT()
	// A spatial x-line at the fastest u_x (the drift's largest CFL) and a
	// u_z-line through the centre of a velocity cube.
	j, mid := g.NU[0]-1, (g.NU[0]/2*g.NU[1]+g.NU[1]/2)*g.NU[2]
	cx := g.U(0, j) * dt / (sim.A * sim.A * g.DX(0))
	xline := make([]float64, g.NX)
	for ix := range xline {
		xline[ix] = float64(g.Cube(ix, 0, 0)[(j*g.NU[1]+g.NU[1]/2)*g.NU[2]+g.NU[2]/2])
	}
	uline := make([]float64, g.NU[2])
	for k := range uline {
		uline[k] = float64(g.Cube(0, 0, 0)[mid+k])
	}
	if err := p.advectLine("advect.periodic_ns_per_cell.n8", lineOf(8, xline), cx, false); err != nil {
		return err
	}
	if err := p.advectLine("advect.open_ns_per_cell.n8", lineOf(8, uline), 0.3, true); err != nil {
		return err
	}

	// One axis sweep is a third of Drift or KickHalf; both run on a copy
	// of the grid with the production worker count.
	vs, err := vlasov.New(g.Clone(), "slmpp5")
	if err != nil {
		return err
	}
	vs.SetWorkers(nproc())
	acc := kickAccel(g, dt)
	cellSweeps := float64(3 * g.NCells() * g.NCube())
	sec, n, err := p.op("vlasov.drift", func() error { return vs.Drift(dt, sim.A) })
	if err != nil {
		return err
	}
	p.set("vlasov.drift_ns_per_cell_sweep", 1e9*sec/cellSweeps, "ns", n)
	sec, n, err = p.op("vlasov.kick", func() error { return vs.KickHalf(dt, acc) })
	if err != nil {
		return err
	}
	p.set("vlasov.kick_ns_per_cell_sweep", 1e9*sec/cellSweeps, "ns", n)
	p.set("vlasov.bytes_per_cell_sweep", bytesPerCellSweep, "B", 1)
	p.set("vlasov.ops_per_byte", flopsPerCellSweep/bytesPerCellSweep, "flop/B", 1)

	var m *phase.Moments
	sec, n, err = p.op("phase.moments", func() error { m = g.ComputeMomentsInto(m); return nil })
	if err != nil {
		return err
	}
	p.set("phase.moments_ns_per_cell", 1e9*sec/float64(g.NCells()*g.NCube()), "ns", n)

	if err := p.forceLayers(sim); err != nil {
		return err
	}

	var bytes int64
	sec, n, err = p.op("snapio.encode", func() error {
		var err error
		bytes, err = sim.Checkpoint(io.Discard)
		return err
	})
	if err != nil {
		return err
	}
	p.set("snapio.encode_mb_per_s", float64(bytes)/sec/1e6, "MB/s", n)
	return p.catalogLayer([]catalog.JobSpec{spec})
}

// kickAccel returns per-cell accelerations whose velocity-space CFL over a
// half-kick of dt varies smoothly across the grid within ±0.4.
func kickAccel(g *phase.Grid, dt float64) [3][]float64 {
	var acc [3][]float64
	for d := range acc {
		acc[d] = make([]float64, g.NCells())
		for c := range acc[d] {
			acc[d][c] = 0.4 * math.Sin(0.7*float64(c+d)) * g.DU(d) / (dt / 2)
		}
	}
	return acc
}

// forceLayers probes the PM (poisson), CIC (nbody) and tree layers on the
// simulation's own particles and mesh, with the hybrid layer's split scale
// and softening (1.25 and 1/20 of a PM cell).
func (p *prober) forceLayers(sim *hybrid.Simulation) error {
	pm, part := sim.PM, sim.Part
	cell := sim.Cfg.Box / float64(pm.N[0])
	rs := 1.25 * cell
	rho := make([]float64, pm.Size())
	sec, n, err := p.op("nbody.cic_deposit", func() error {
		clear(rho)
		return part.CICDeposit(rho, pm.N)
	})
	if err != nil {
		return err
	}
	p.set("nbody.cic_deposit_ms", 1e3*sec, "ms", n)
	coeff := sim.Cfg.Par.PoissonCoeff(sim.A)
	phi := make([]float64, pm.Size())
	sec, n, err = p.op("poisson.solve", func() error {
		_, err := pm.SolveFiltered(rho, coeff, rs, phi)
		return err
	})
	if err != nil {
		return err
	}
	p.set("poisson.solve_ms", 1e3*sec, "ms", n)
	var meshAcc [3][]float64
	sec, n, err = p.op("poisson.accel", func() error { return pm.AccelInto(phi, &meshAcc) })
	if err != nil {
		return err
	}
	p.set("poisson.accel_ms", 1e3*sec, "ms", n)
	var pacc [3][]float64
	for d := range pacc {
		pacc[d] = make([]float64, part.N)
	}
	sec, n, err = p.op("nbody.cic_interp", func() error {
		for d := 0; d < 3; d++ {
			if err := part.CICInterp(meshAcc[d], pm.N, pacc[d]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.set("nbody.cic_interp_ms", 1e3*sec, "ms", n)
	opt := tree.Options{Theta: sim.Cfg.Theta, RSplit: rs, Soft: cell / 20}
	var tr *tree.Tree
	sec, n, err = p.op("tree.build", func() error {
		var err error
		tr, err = tree.Build(part, opt)
		return err
	})
	if err != nil {
		return err
	}
	p.set("tree.build_ms", 1e3*sec, "ms", n)
	tr.SetWorkers(nproc())
	sec, n, err = p.op("tree.accel_all", func() error { return tr.AccelAll(pacc) })
	if err != nil {
		return err
	}
	p.set("tree.accel_all_ms", 1e3*sec, "ms", n)
	return nil
}

// catalogLayer times spec resolution: Validate plus Job, per spec.
func (p *prober) catalogLayer(specs []catalog.JobSpec) error {
	cat := catalog.Default()
	i := 0
	sec, n, err := p.op("catalog.validate", func() error {
		spec := specs[i%len(specs)]
		i++
		if _, _, err := cat.Validate(spec); err != nil {
			return err
		}
		_, err := cat.Job(spec)
		return err
	})
	if err != nil {
		return err
	}
	p.set("catalog.validate_us", 1e6*sec, "us", n)
	return nil
}

// plasmaLayers probes the plasma drift and kick sweeps and the long
// advect lines (64-cell periodic x-lines, 128-cell open v-lines).
func (p *prober) plasmaLayers(s *plasma.Solver) error {
	dt := s.SuggestDT()
	cells := float64(s.NX * s.NV)
	sec, n, err := p.op("plasma.drift", func() error { return s.DriftStep(dt) })
	if err != nil {
		return err
	}
	p.set("plasma.drift_ns_per_cell", 1e9*sec/cells, "ns", n)
	sec, n, err = p.op("plasma.kick", func() error { return s.KickStep(dt / 2) })
	if err != nil {
		return err
	}
	p.set("plasma.kick_ns_per_cell", 1e9*sec/cells, "ns", n)
	// The x-line at the fastest velocity and the v-line of the strongest
	// field, at the CFL numbers the solver uses on them.
	j := s.NV - 1
	xline := make([]float64, s.NX)
	for i := range xline {
		xline[i] = s.F[i*s.NV+j]
	}
	e := s.ElectricField()
	imax := 0
	for i, v := range e {
		if math.Abs(v) > math.Abs(e[imax]) {
			imax = i
		}
	}
	if err := p.advectLine("advect.periodic_ns_per_cell.n64", lineOf(64, xline), s.V(j)*dt/s.DX(), false); err != nil {
		return err
	}
	return p.advectLine("advect.open_ns_per_cell.n128",
		lineOf(128, s.F[imax*s.NV:(imax+1)*s.NV]), -e[imax]*dt/s.DV(), true)
}

// lineOf returns line when it has the probe's length n, and otherwise a
// Maxwellian profile of n cells, so every advect metric times its named
// line length whatever the workload's grid.
func lineOf(n int, line []float64) []float64 {
	if len(line) == n {
		return line
	}
	out := make([]float64, n)
	for i := range out {
		v := 8 * (float64(i) + 0.5 - float64(n)/2) / float64(n)
		out[i] = math.Exp(-v * v / 2)
	}
	return out
}

// hybridScaling times the hybrid step and the Vlasov step at 1 and at
// nproc workers and checks that both final states are bit-identical.
func (p *prober) hybridScaling(c solverCase) error {
	np := nproc()
	const steps = 2
	var sims [2]*hybrid.Simulation
	var hsec [2]float64
	for i, w := range []int{1, np} {
		sv, err := c.build()
		if err != nil {
			return err
		}
		sim := sv.(*hybrid.Simulation)
		sim.SetWorkers(w)
		dt := sim.SuggestDT()
		t0 := time.Now()
		for k := 0; k < steps; k++ {
			if err := sim.Step(dt); err != nil {
				return err
			}
		}
		hsec[i] = time.Since(t0).Seconds() / steps
		p.tr.add(0, 0, fmt.Sprintf("hybrid.step.workers%d", w), t0, time.Since(t0))
		sims[i] = sim
	}
	p.res.Attempted++
	same := sameBits32(sims[0].Grid.Data, sims[1].Grid.Data)
	for d := 0; d < 3; d++ {
		same = same && sameBits64(sims[0].Part.Pos[d], sims[1].Part.Pos[d]) &&
			sameBits64(sims[0].Part.Vel[d], sims[1].Part.Vel[d])
	}
	if !same {
		p.res.fail("hybrid step: 1-worker and %d-worker states differ", np)
	}
	p.set("hybrid.parallel_efficiency", hsec[0]/(float64(np)*hsec[1]), "1", 2*steps)

	g := sims[0].Grid
	dt := sims[0].SuggestDT()
	acc := kickAccel(g, dt)
	var grids [2]*phase.Grid
	var vsec [2]float64
	for i, w := range []int{1, np} {
		grids[i] = g.Clone()
		vs, err := vlasov.New(grids[i], "slmpp5")
		if err != nil {
			return err
		}
		vs.SetWorkers(w)
		t0 := time.Now()
		for k := 0; k < steps; k++ {
			if err := vs.Step(dt, sims[0].A, acc); err != nil {
				return err
			}
		}
		vsec[i] = time.Since(t0).Seconds() / steps
		p.tr.add(0, 0, fmt.Sprintf("vlasov.step.workers%d", w), t0, time.Since(t0))
	}
	p.res.Attempted++
	if !sameBits32(grids[0].Data, grids[1].Data) {
		p.res.fail("vlasov step: 1-worker and %d-worker states differ", np)
	}
	p.set("vlasov.parallel_efficiency", vsec[0]/(float64(np)*vsec[1]), "1", 2*steps)
	return nil
}

func sameBits32(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

func sameBits64(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// probeHybridSize is the hybrid run the complement probe drives: the
// catalog defaults for three steps, checkpointing every step.
func probeHybridSize(full hybridSize) hybridSize {
	full.AEnd = 0.0965
	full.CkptEvery = 1
	return full
}

// hybridComplement gives a workload that drives no hybrid simulation the
// hybrid, vlasov, phase, force, snapio and runner-checkpoint layers: a
// short traced hybrid run at the catalog defaults, then the layer probes.
func (p *prober) hybridComplement() error {
	sz := probeHybridSize(p.cfg.sizes.vlasov)
	c, err := hybridCase(sz, p.cfg.seed)
	if err != nil {
		return err
	}
	p.res.Attempted++
	_, sv, _, err := runRep(c, filepath.Join(p.cfg.workDir, "probe-hybrid"), p.tr, "hybrid.step")
	if err != nil {
		p.res.fail("hybrid probe: %v", err)
		return nil
	}
	if ck := p.tr.durations("runner.checkpoint_write"); len(ck) > 0 {
		p.set("runner.checkpoint_write_ms", 1e3*median(ck), "ms", len(ck))
	}
	reportHybridSteps(p.res, p.tr)
	if err := p.hybridLayers(sv.(*hybrid.Simulation), hybridSpec(sz, p.cfg.seed)); err != nil {
		return err
	}
	return p.hybridScaling(c)
}

// plasmaComplement gives a workload that drives no plasma solver the
// plasma and long-line advect layers: a short traced Landau run at the
// landau_accuracy shape and worker count, then the layer probes.
func (p *prober) plasmaComplement() error {
	s, err := newLandau(p.cfg.sizes.landau, p.cfg.seed, p.cfg.sizes.landau.Workers)
	if err != nil {
		return err
	}
	run := p.tr.newRun()
	span := p.tr.begin(run, 0, "runner.run")
	ts := &tracedSolver{benchSolver: s, tr: p.tr, run: run, parent: span, name: "plasma.step"}
	p.res.Attempted++
	_, err = runner.Run(context.Background(), ts.forRunner(), 1.0)
	p.tr.end(span)
	if err != nil {
		p.res.fail("plasma probe: %v", err)
		return nil
	}
	steps := p.tr.durations("plasma.step")
	p.set("plasma.step_us", 1e6*median(steps), "us", len(steps))
	return p.plasmaLayers(s)
}
