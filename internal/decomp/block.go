// Package decomp implements the paper's §5.1.3 parallel decomposition on
// top of the mpisim runtime: the spatial grid is split evenly along each
// axis across a Cartesian process grid while VELOCITY SPACE IS NEVER
// DECOMPOSED — each rank holds complete velocity cubes, so all moments stay
// communication-free. Position-space advection exchanges GhostWidth = 3
// ghost planes with the two neighbours along the sweep axis and hands each
// padded line to advect.SLMPP5.StepPadded. A step at CFL c reads
// w(c) = ⌈|c|⌉ + 2 ghost cells per side, so three planes cover exactly the
// |c| ≤ 1 drifts DriftAxis accepts (w(1) = 3); Drift sub-steps anything
// faster. Interface fluxes are computed from identical stencil data on both
// sides, so global mass conservation holds to round-off.
//
// The package also provides the distributed FFT used by the PM part: ranks
// re-distribute the 3D-decomposed density into slabs (the analogue of the
// paper's 3D→2D layout exchange feeding the SSL II FFT), transform, and
// return.
package decomp

import (
	"fmt"
	"math"

	"vlasov6d/internal/advect"
	"vlasov6d/internal/mpisim"
	"vlasov6d/internal/phase"
)

// GhostWidth is the ghost depth SL-MPP5 reads at |CFL| ≤ 1: w(1) = 3.
const GhostWidth = 3

// Block is one rank's piece of the global phase-space grid.
type Block struct {
	Comm   *mpisim.Comm
	Cart   *mpisim.Cart
	G      *phase.Grid
	Global [3]int // global spatial extents
	Coords [3]int // this rank's process coordinates

	open *advect.SLMPP5
}

// NewBlock builds the local block for this rank. globalN must be divisible
// by the process grid along each axis, and each local extent must be at
// least GhostWidth.
func NewBlock(comm *mpisim.Comm, cart *mpisim.Cart, globalN [3]int, nu [3]int,
	box [3]float64, umax float64) (*Block, error) {
	var local [3]int
	var localBox [3]float64
	for d := 0; d < 3; d++ {
		if globalN[d]%cart.N[d] != 0 {
			return nil, fmt.Errorf("decomp: global N[%d]=%d not divisible by %d ranks",
				d, globalN[d], cart.N[d])
		}
		local[d] = globalN[d] / cart.N[d]
		if local[d] < GhostWidth {
			return nil, fmt.Errorf("decomp: local extent %d < ghost width %d", local[d], GhostWidth)
		}
		localBox[d] = box[d] / float64(cart.N[d])
	}
	g, err := phase.New(local[0], local[1], local[2], nu, localBox, umax)
	if err != nil {
		return nil, err
	}
	return &Block{
		Comm:   comm,
		Cart:   cart,
		G:      g,
		Global: globalN,
		Coords: cart.Coords(comm.Rank()),
		open:   advect.NewSLMPP5(),
	}, nil
}

// GlobalOrigin returns the global index of the block's first cell along d.
func (b *Block) GlobalOrigin(d int) int {
	return b.Coords[d] * b.localN(d)
}

func (b *Block) localN(d int) int {
	switch d {
	case 0:
		return b.G.NX
	case 1:
		return b.G.NY
	default:
		return b.G.NZ
	}
}

// packPlanes copies `count` spatial planes perpendicular to axis, starting
// at plane index `from`, into a flat buffer (plane-major).
func (b *Block) packPlanes(axis, from, count int) []float32 {
	g := b.G
	nc := g.NCube()
	planeCells := g.NCells() / b.localN(axis)
	out := make([]float32, count*planeCells*nc)
	o := 0
	for p := 0; p < count; p++ {
		idx := from + p
		b.forEachPlaneCell(axis, idx, func(cell int) {
			copy(out[o:o+nc], g.CubeAt(cell))
			o += nc
		})
	}
	return out
}

// forEachPlaneCell visits the flat spatial index of every cell in the
// perpendicular plane at position idx along axis, in the line order of
// phase.Grid.ColumnStart (the order DriftAxis reads ghost planes in).
func (b *Block) forEachPlaneCell(axis, idx int, fn func(cell int)) {
	off := idx * b.cellStride(axis)
	for p := 0; p < b.G.NCells()/b.localN(axis); p++ {
		fn(b.G.ColumnStart(axis, p) + off)
	}
}

// ExchangeGhosts trades GhostWidth boundary planes with both neighbours
// along axis and returns (loGhost, hiGhost): the remote planes adjacent to
// the low and high faces, plane-major with the plane nearest the boundary
// LAST in loGhost (i.e. loGhost holds global planes origin−3, −2, −1 in
// ascending order) and ascending in hiGhost (origin+n, +1, +2).
func (b *Block) ExchangeGhosts(axis int) (lo, hi []float32, err error) {
	n := b.localN(axis)
	loNbr, hiNbr := b.Cart.Shift(b.Comm.Rank(), axis)
	// Send my low face to the low neighbour (it becomes their hiGhost), my
	// high face to the high neighbour.
	tagBase := 1000 + axis*4
	myLow := b.packPlanes(axis, 0, GhostWidth)
	myHigh := b.packPlanes(axis, n-GhostWidth, GhostWidth)
	// Stage 1: send high face up, receive loGhost from below.
	d, err := b.Comm.Sendrecv(hiNbr, tagBase, myHigh, loNbr, tagBase)
	if err != nil {
		return nil, nil, err
	}
	lo = d.([]float32)
	// Stage 2: send low face down, receive hiGhost from above.
	d, err = b.Comm.Sendrecv(loNbr, tagBase+1, myLow, hiNbr, tagBase+1)
	if err != nil {
		return nil, nil, err
	}
	hi = d.([]float32)
	return lo, hi, nil
}

// DriftAxis advances the position-space advection along axis by dt at scale
// factor a. The per-step CFL must satisfy |c| ≤ 1 (the ghost width); the
// caller splits larger steps.
func (b *Block) DriftAxis(axis int, dt, a float64) error {
	g := b.G
	dx := g.DX(axis) // local box / local N = global box / global N
	cmax := g.UMax * dt / (a * a * dx)
	if cmax > 1+1e-12 {
		return fmt.Errorf("decomp: drift CFL %v exceeds ghost width (split the step)", cmax)
	}
	lo, hi, err := b.ExchangeGhosts(axis)
	if err != nil {
		return err
	}
	n := b.localN(axis)
	nc := g.NCube()
	planeCells := g.NCells() / n
	nud := g.NU[axis] // velocity index along the same axis drives the CFL
	cfl := make([]float64, nud)
	for j := 0; j < nud; j++ {
		cfl[j] = g.U(axis, j) * dt / (a * a * dx)
	}
	// For each perpendicular cell column p (index within a plane) and cube
	// element e, assemble the padded line and update in place.
	padded := make([]float64, n+2*GhostWidth)
	stride := b.cellStride(axis)
	for p := 0; p < planeCells; p++ {
		cell0 := g.ColumnStart(axis, p) // the ghost planes' order too
		for e := 0; e < nc; e++ {
			c := cfl[g.VelIndexAlong(axis, e)]
			if c == 0 {
				continue
			}
			for i := 0; i < n; i++ {
				padded[GhostWidth+i] = float64(g.Data[(cell0+i*stride)*nc+e])
			}
			for k := 0; k < GhostWidth; k++ {
				padded[k] = float64(lo[(k*planeCells+p)*nc+e])
				padded[GhostWidth+n+k] = float64(hi[(k*planeCells+p)*nc+e])
			}
			if err := b.open.StepPadded(padded, GhostWidth, c); err != nil {
				return err
			}
			for i := 0; i < n; i++ {
				g.Data[(cell0+i*stride)*nc+e] = float32(padded[GhostWidth+i])
			}
		}
	}
	return nil
}

// cellStride returns the flat spatial-index stride along axis.
func (b *Block) cellStride(axis int) int {
	switch axis {
	case 0:
		return b.G.NY * b.G.NZ
	case 1:
		return b.G.NZ
	default:
		return 1
	}
}

// Drift applies all three spatial advections, splitting each into enough
// sub-steps to honour the ghost-width CFL limit.
func (b *Block) Drift(dt, a float64) error {
	for axis := 0; axis < 3; axis++ {
		cmax := b.G.UMax * dt / (a * a * b.G.DX(axis))
		sub := int(math.Ceil(cmax))
		if sub < 1 {
			sub = 1
		}
		for s := 0; s < sub; s++ {
			if err := b.DriftAxis(axis, dt/float64(sub), a); err != nil {
				return err
			}
		}
	}
	return nil
}

// LocalMass returns this block's total phase-space mass.
func (b *Block) LocalMass() float64 { return b.G.TotalMass() }

// GlobalMass reduces the total mass across all ranks.
func (b *Block) GlobalMass() (float64, error) {
	return b.Comm.AllreduceScalar(mpisim.OpSum, b.LocalMass())
}

// GatherDensity assembles the GLOBAL density moment field on every rank:
// each rank computes its local moments and contributes them into its slots
// of a global mesh, combined with an all-reduce. This is the shared-mesh
// step feeding the PM solve.
func (b *Block) GatherDensity() ([]float64, error) {
	m := b.G.ComputeMoments()
	nx, ny, nz := b.Global[0], b.Global[1], b.Global[2]
	mesh := make([]float64, nx*ny*nz)
	ox, oy, oz := b.GlobalOrigin(0), b.GlobalOrigin(1), b.GlobalOrigin(2)
	for ix := 0; ix < b.G.NX; ix++ {
		for iy := 0; iy < b.G.NY; iy++ {
			for iz := 0; iz < b.G.NZ; iz++ {
				mesh[((ox+ix)*ny+oy+iy)*nz+oz+iz] = m.Density[b.G.CellIndex(ix, iy, iz)]
			}
		}
	}
	return b.Comm.Allreduce(mpisim.OpSum, mesh)
}
