// Command vlasov6d is the main simulation driver: a hybrid Vlasov/N-body
// cosmological run of massive neutrinos and cold dark matter, the Go-scale
// counterpart of the paper's production code, executed under the unified
// Runner API (graceful Ctrl-C cancellation, wall-clock budget, checkpoint
// cadence, restart from a checkpoint).
//
// Example:
//
//	vlasov6d -box 200 -ngrid 12 -nu 10 -npart 12 -mnu 0.4 -zinit 10 -zend 2 \
//	         -checkpoint ckpts -checkpoint-every 50 -checkpoint-keep 3 \
//	         -snapshot out.v6d -spectrum pk.csv
//	vlasov6d -resume ckpts -zend 2   # pick up from the newest checkpoint
//	vlasov6d -resume ckpts/ckpt_00000.25000000.v6d -zend 2   # or a specific one
//
// The run prints a per-step log line (a, z, dt, conservation checks) and the
// final wall-clock decomposition by part (the paper's Fig. 7 categories).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"

	"vlasov6d"
	"vlasov6d/internal/analysis"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("vlasov6d: ")
	var (
		box       = flag.Float64("box", 200, "comoving box size (h⁻¹Mpc)")
		ngrid     = flag.Int("ngrid", 12, "Vlasov spatial cells per side")
		nuCells   = flag.Int("nu", 10, "velocity cells per side")
		npart     = flag.Int("npart", 12, "CDM particles per side")
		pmf       = flag.Int("pmfactor", 2, "PM mesh refinement over the Vlasov grid")
		mnu       = flag.Float64("mnu", 0.4, "ΣMν (eV)")
		zinit     = flag.Float64("zinit", 10, "starting redshift")
		zend      = flag.Float64("zend", 0, "final redshift")
		scheme    = flag.String("scheme", "slmpp5", "advection scheme: slmpp5|mp5|upwind1|laxwendroff2")
		seed      = flag.Int64("seed", 20211114, "IC random seed")
		baseline  = flag.Bool("nu-particles", false, "use the TianNu-style ν-particle baseline instead of the Vlasov grid")
		resume    = flag.String("resume", "", "restart from this snapshot file — or the newest checkpoint when given a directory")
		ckptDir   = flag.String("checkpoint", "", "write checkpoints into this directory")
		ckptEvery = flag.Int("checkpoint-every", 50, "checkpoint cadence in steps")
		ckptKeep  = flag.Int("checkpoint-keep", 0, "keep only the newest N checkpoints (0 = keep all)")
		wall      = flag.Duration("wall", 0, "wall-clock budget (0 = unlimited), e.g. 30m")
		maxSteps  = flag.Int("max-steps", 1000000, "step budget (0 = unlimited)")
		snap      = flag.String("snapshot", "", "write a final snapshot to this path")
		spectrum  = flag.String("spectrum", "", "write the final total-matter P(k) CSV to this path")
		logEvery  = flag.Int("log-every", 10, "progress log cadence in steps")
	)
	flag.Parse()

	cfg := vlasov6d.Config{
		Par:       vlasov6d.Planck2015(*mnu),
		Box:       *box,
		NGrid:     *ngrid,
		NU:        *nuCells,
		NPartSide: *npart,
		Seed:      *seed,
	}
	opts := []vlasov6d.SimOption{
		vlasov6d.WithScheme(*scheme),
		vlasov6d.WithPMFactor(*pmf),
	}
	if *baseline {
		// The ν-particle baseline checkpoints through snapio format v2's
		// second particle section, so -checkpoint works in every mode.
		opts = append(opts, vlasov6d.WithNuParticleBaseline(0))
	}
	aInit := 1 / (1 + *zinit)
	aEnd := 1 / (1 + *zend)

	var sim *vlasov6d.Simulation
	var err error
	if *resume != "" {
		var sp *vlasov6d.Snapshot
		var src = *resume
		if st, serr := os.Stat(*resume); serr == nil && st.IsDir() {
			sp, src, err = vlasov6d.ResumeLatest(*resume)
		} else {
			var f *os.File
			if f, err = os.Open(*resume); err == nil {
				sp, err = vlasov6d.ReadSnapshot(f)
				f.Close()
			}
		}
		if err != nil {
			log.Fatal(err)
		}
		sim, err = vlasov6d.RestoreSimulation(cfg, sp, opts...)
		if err == nil {
			log.Printf("resumed from %s at a = %.4f (z = %.2f)", src, sim.A, sim.Redshift())
		}
	} else {
		sim, err = vlasov6d.NewSimulation(cfg, aInit, opts...)
	}
	if err != nil {
		log.Fatal(err)
	}
	nu0, cdm0 := sim.TotalMass()
	log.Printf("box %.0f h⁻¹Mpc, %d³ Vlasov cells × %d³ velocity cells, %d³ particles, ΣMν = %.2f eV",
		*box, *ngrid, *nuCells, *npart, *mnu)
	log.Printf("fν = %.4f, starting at z = %.2f", sim.Cosmo().FNu(), sim.Redshift())

	// Ctrl-C / SIGINT cancels the run gracefully; the final snapshot and
	// spectrum are still written from the partial state.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	runOpts := []vlasov6d.RunOption{
		vlasov6d.WithMaxSteps(*maxSteps),
		vlasov6d.WithObserver(func(step int, s vlasov6d.Solver) error {
			if *logEvery > 0 && (step+1)%*logEvery == 0 {
				d := s.Diagnostics()
				loss := d.Extra["boundary_loss"]
				log.Printf("step %4d: a = %.4f (z = %5.2f), ν-mass drift = %+.2e, boundary loss = %.2e",
					step+1, d.Clock, d.Extra["z"], (d.Extra["nu_mass"]+loss-nu0)/nu0, loss/nu0)
			}
			return nil
		}),
	}
	if *wall > 0 {
		runOpts = append(runOpts, vlasov6d.WithWallClock(*wall))
	}
	if *ckptDir != "" {
		runOpts = append(runOpts, vlasov6d.WithCheckpoint(*ckptDir, *ckptEvery))
		if *ckptKeep > 0 {
			runOpts = append(runOpts, vlasov6d.WithCheckpointKeep(*ckptKeep))
		}
		// Snapshot I/O overlaps compute: the hot loop captures state and the
		// async pipeline writes it (a nil observer routes only checkpoints).
		runOpts = append(runOpts, vlasov6d.WithAsyncObserver(nil))
	}
	rep, err := vlasov6d.Run(ctx, sim, aEnd, runOpts...)
	if err != nil {
		if ctx.Err() == nil {
			log.Fatal(err)
		}
		log.Printf("interrupted: %v", err)
	} else if rep.Reason != vlasov6d.ReasonUntil {
		log.Printf("stopped on %v budget after %d steps at z = %.2f", rep.Reason, rep.Steps, sim.Redshift())
	}
	if len(rep.Checkpoints) > 0 {
		log.Printf("checkpoints: %d files, %d bytes, latest %s",
			len(rep.Checkpoints), rep.CheckpointBytes, rep.Checkpoints[len(rep.Checkpoints)-1])
	}

	nu1, cdm1 := sim.TotalMass()
	fmt.Printf("\nrun complete: %d steps to z = %.2f (%.1f s wall)\n",
		rep.Steps, sim.Redshift(), rep.Wall.Seconds())
	fmt.Printf("  CDM mass        : %.6e (drift %+.1e)\n", cdm1, (cdm1-cdm0)/cdm0)
	if nu0 > 0 {
		fmt.Printf("  ν mass          : %.6e (drift %+.1e)\n", nu1, (nu1-nu0)/nu0)
	}
	fmt.Printf("  step time       : %.1f s over %d steps\n", sim.Tim.Total.Seconds(), sim.Tim.Steps)
	fmt.Printf("  part breakdown  : Vlasov %.1fs | tree %.1fs | PM (incl. moments) %.1fs | moments %.1fs\n",
		sim.Tim.Vlasov.Seconds(), sim.Tim.Tree.Seconds(), sim.Tim.PM.Seconds(),
		sim.Tim.Moments.Seconds())

	if *snap != "" {
		f, err := os.Create(*snap)
		if err != nil {
			log.Fatal(err)
		}
		n, err := vlasov6d.WriteSnapshot(f, &vlasov6d.Snapshot{A: sim.A, Time: sim.Time, Part: sim.Part, Grid: sim.Grid, NuPart: sim.NuPart})
		if err != nil {
			log.Fatal(err)
		}
		f.Close()
		log.Printf("snapshot: %s (%d bytes)", *snap, n)
	}
	if *spectrum != "" {
		mesh := make([]float64, sim.PM.Size())
		if err := sim.Part.CICDeposit(mesh, sim.PM.N); err != nil {
			log.Fatal(err)
		}
		if nuRho := sim.NeutrinoDensityPM(); nuRho != nil {
			for i, v := range nuRho {
				mesh[i] += v
			}
		}
		ks, pk, _, err := analysis.PowerSpectrum(mesh, sim.PM.N[0], *box, 16)
		if err != nil {
			log.Fatal(err)
		}
		f, err := os.Create(*spectrum)
		if err != nil {
			log.Fatal(err)
		}
		if err := analysis.WriteCSV(f, []string{"k_h_Mpc", "Pk_Mpc3_h3"}, ks, pk); err != nil {
			log.Fatal(err)
		}
		f.Close()
		log.Printf("power spectrum: %s (%d bins)", *spectrum, len(ks))
	}
}
