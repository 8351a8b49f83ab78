// Command scaling regenerates the paper's performance artefacts: the run
// matrix (Table 2), the per-direction sweep throughput (Table 1), the weak
// and strong scaling efficiencies (Tables 3–4) and the wall-time-per-step
// decomposition (Fig. 7), plus the §7.2 time-to-solution comparison.
//
// Usage:
//
//	scaling [-table1] [-runs] [-weak] [-strong] [-fig7] [-tts] [-all]
//
// Table 1 is measured on this machine: each row times the production
// SL-MPP5 axis sweep of vlasov.Solver (KickAxis for ux, uy, uz; DriftAxis
// for x, y, z) on an 8³ × 16³ grid with every core, in ns per cell-sweep
// and Gflop/s. The other artefacts come from the calibrated Fugaku machine
// model; modelled numbers are printed next to the published values in
// parentheses.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"vlasov6d/internal/machine"
	"vlasov6d/internal/vlasov"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("scaling: ")
	var (
		table1 = flag.Bool("table1", false, "measure Table 1 (production sweep per direction) on this machine")
		runs   = flag.Bool("runs", false, "print the Table 2 run matrix")
		weak   = flag.Bool("weak", false, "print Table 3 (weak scaling, model vs paper)")
		strong = flag.Bool("strong", false, "print Table 4 (strong scaling, model vs paper)")
		fig7   = flag.Bool("fig7", false, "print the Fig. 7 per-step time decomposition")
		tts    = flag.Bool("tts", false, "print the §7.2 time-to-solution comparison")
		all    = flag.Bool("all", false, "print everything")
	)
	flag.Parse()
	if !(*table1 || *runs || *weak || *strong || *fig7 || *tts) {
		*all = true
	}
	m, err := machine.New(machine.Defaults())
	if err != nil {
		log.Fatal(err)
	}
	out := os.Stdout

	if *all || *table1 {
		fmt.Fprintln(out, "Measuring Table 1 on this machine's production SL-MPP5 sweeps "+
			"(absolute Gflops are this host's, not A64FX's)...")
		s, err := vlasov.NewTable1Solver(8, 16)
		if err != nil {
			log.Fatal(err)
		}
		rows, err := vlasov.MeasureTable1(s, 2)
		if err != nil {
			log.Fatal(err)
		}
		vlasov.WriteTable1(out, rows)
		fmt.Fprintln(out)
	}
	if *all || *runs {
		fmt.Fprintln(out, "Table 2: run matrix")
		fmt.Fprintf(out, "%-8s %6s %6s %8s %8s %14s %6s\n",
			"ID", "Nx", "Nu", "N_CDM", "nodes", "(nx,ny,nz)", "p/node")
		for _, r := range machine.Table2 {
			fmt.Fprintf(out, "%-8s %5d³ %5d³ %7d³ %8d (%3d,%3d,%3d) %6d\n",
				r.ID, r.NxSide, r.NuSide, r.NCDMSide, r.Nodes,
				r.Proc[0], r.Proc[1], r.Proc[2], r.ProcsPerNode)
		}
		fmt.Fprintln(out)
	}
	if *all || *weak {
		if err := m.WriteTable3(out); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintln(out)
	}
	if *all || *strong {
		if err := m.WriteTable4(out); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintln(out)
	}
	if *all || *fig7 {
		m.WriteFig7(out)
		fmt.Fprintln(out)
	}
	if *all || *tts {
		m.WriteTTS(out, machine.DefaultTTS())
	}
}
