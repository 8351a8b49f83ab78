package vlasov

import (
	"fmt"
	"io"
	"math"
	"slices"
	"time"

	"vlasov6d/internal/advect"
	"vlasov6d/internal/phase"
)

// Table1Directions labels the six axis sweeps of the paper's §5.3 Table 1
// in its order: the velocity kicks, then the position drifts.
var Table1Directions = [6]string{"ux", "uy", "uz", "x", "y", "z"}

// table1CFL is the CFL number of every measured kick line and of the
// fastest drift line.
const table1CFL = 0.3

// Table1Row is the measured throughput of one production axis sweep.
type Table1Row struct {
	Direction      string
	NsPerCellSweep float64
	GFlops         float64 // at advect.SLMPP5FlopsPerCell per cell-sweep
}

// NewTable1Solver returns an SL-MPP5 solver on an nx³ × nu³ grid holding a
// Maxwellian (σ = UMax/5) with a density wave along x: the state that
// MeasureTable1 sweeps.
func NewTable1Solver(nx, nu int) (*Solver, error) {
	const box, umax, sigma = 100.0, 4000.0, 800.0
	g, err := phase.New(nx, nx, nx, [3]int{nu, nu, nu}, [3]float64{box, box, box}, umax)
	if err != nil {
		return nil, err
	}
	g.Fill(func(x, y, z, ux, uy, uz float64) float64 {
		w := 1 + 0.3*math.Sin(2*math.Pi*x/box)
		return w * math.Exp(-(ux*ux+uy*uy+uz*uz)/(2*sigma*sigma))
	})
	return New(g, "slmpp5")
}

// MeasureTable1Sweep times reps production sweeps of one Table 1 direction
// on s's grid after one untimed warm-up sweep. Kicks run KickAxis with a
// uniform acceleration at CFL table1CFL; drifts run DriftAxis at a = 1 with
// the fastest velocity moving table1CFL cells. The sign of dt alternates so
// that repeated sweeps keep the distribution in place. Mass leaving the
// velocity grid is added to s.BoundaryLoss, as in a solver step.
func MeasureTable1Sweep(s *Solver, dir string, reps int) (Table1Row, error) {
	d := slices.Index(Table1Directions[:], dir)
	if d < 0 {
		return Table1Row{}, fmt.Errorf("vlasov: unknown Table 1 direction %q", dir)
	}
	if reps < 1 {
		return Table1Row{}, fmt.Errorf("vlasov: Table 1 reps %d < 1", reps)
	}
	g := s.g
	var sweep func(sign float64) error
	if d < 3 {
		acc := make([]float64, g.NCells())
		for i := range acc {
			acc[i] = table1CFL * g.DU(d)
		}
		sweep = func(sign float64) error { return s.KickAxis(d, sign, acc) }
	} else {
		d -= 3
		dt := table1CFL * g.DX(d) / g.UMax
		sweep = func(sign float64) error { return s.DriftAxis(d, sign*dt, 1) }
	}
	if err := sweep(1); err != nil {
		return Table1Row{}, err
	}
	sign := -1.0
	start := time.Now()
	for r := 0; r < reps; r++ {
		if err := sweep(sign); err != nil {
			return Table1Row{}, err
		}
		sign = -sign
	}
	el := time.Since(start).Seconds()
	cellSweeps := float64(len(g.Data)) * float64(reps)
	return Table1Row{
		Direction:      dir,
		NsPerCellSweep: 1e9 * el / cellSweeps,
		GFlops:         advect.SLMPP5FlopsPerCell * cellSweeps / el / 1e9,
	}, nil
}

// MeasureTable1 measures every Table 1 direction in order.
func MeasureTable1(s *Solver, reps int) ([]Table1Row, error) {
	rows := make([]Table1Row, 0, len(Table1Directions))
	for _, dir := range Table1Directions {
		r, err := MeasureTable1Sweep(s, dir, reps)
		if err != nil {
			return nil, err
		}
		rows = append(rows, r)
	}
	return rows, nil
}

// WriteTable1 renders rows as the paper's Table 1, one production sweep
// per direction.
func WriteTable1(w io.Writer, rows []Table1Row) {
	fmt.Fprintln(w, "Table 1: SL-MPP5 axis sweep throughput per direction")
	fmt.Fprintf(w, "%-10s %14s %10s\n", "Direction", "ns/cell-sweep", "Gflop/s")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %14.1f %10.3f\n", r.Direction, r.NsPerCellSweep, r.GFlops)
	}
}
