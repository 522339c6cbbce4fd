package core

import (
	"errors"
	"fmt"
	"slices"

	"sdcmd/internal/box"
	"sdcmd/internal/vec"
)

// MaxCells caps the cell count of a Grid, so a tiny reach fails with an
// error instead of exhausting memory. The largest paper case, 3 456 000
// atoms at reach 4 Å, needs 42³ = 74 088 SDC subdomains and 86³ neighbor
// cells.
const MaxCells = 1 << 20

// ErrTooManyCells reports cell counts whose product exceeds MaxCells.
var ErrTooManyCells = errors.New("core: grid needs more cells than MaxCells")

// Grid is the one binned grid under the SDC subdomains, the neighbor
// cells and the §II.D spatial order: Counts[0]×Counts[1]×Counts[2]
// equal cells tiling Box, flattened x-major, with the atoms of cell c
// stored CSR-style in the paper's pstart[]/partindex[] arrays (Figs.
// 7/8) as PartIndex[PStart[c]:PStart[c+1]].
type Grid struct {
	// Box is the tiled cell.
	Box box.Box
	// Counts is the number of cells along each axis (>= 1).
	Counts [3]int

	// PStart/PartIndex are the paper's pstart[]/partindex[] arrays.
	PStart    []int32
	PartIndex []int32

	cell   []int32 // cell[i] is the flat cell atom i was binned into
	cursor []int32 // Rebin's per-cell fill position
}

// NewGrid returns an empty grid of counts cells over bx; Rebin bins
// atoms into it. Counts below 1 are an error, and so is a product
// above MaxCells (ErrTooManyCells).
func NewGrid(bx box.Box, counts [3]int) (*Grid, error) {
	total := 1
	for _, n := range counts {
		if n < 1 {
			return nil, fmt.Errorf("core: cell counts %v must be >= 1", counts)
		}
		if n > MaxCells/total {
			return nil, fmt.Errorf("%w: counts %v", ErrTooManyCells, counts)
		}
		total *= n
	}
	return &Grid{Box: bx, Counts: counts}, nil
}

// NumCells returns the total cell count.
func (g *Grid) NumCells() int { return g.Counts[0] * g.Counts[1] * g.Counts[2] }

// EdgeLengths returns the cell edge along each axis.
func (g *Grid) EdgeLengths() vec.Vec3 {
	l := g.Box.Lengths()
	return vec.New(
		l[0]/float64(g.Counts[0]),
		l[1]/float64(g.Counts[1]),
		l[2]/float64(g.Counts[2]),
	)
}

// Flatten maps cell coordinates to the flat (x-major) cell index.
func (g *Grid) Flatten(c [3]int) int {
	return (c[0]*g.Counts[1]+c[1])*g.Counts[2] + c[2]
}

// Unflatten is the inverse of Flatten.
func (g *Grid) Unflatten(c int) [3]int {
	z := c % g.Counts[2]
	c /= g.Counts[2]
	y := c % g.Counts[1]
	x := c / g.Counts[1]
	return [3]int{x, y, z}
}

// CellOf returns the flat index of the cell containing position p,
// wrapped into the box on periodic axes and clamped into range. A
// coordinate already inside the box is binned as it is: Box.Wrap can
// round one within an ulp of Hi down to about Lo, and the neighbor
// search's periodic shifts need every atom in the cell its coordinate
// lies in.
//
// Each axis is one scalar expression with the arithmetic of Box.Wrap
// and Box.FracCoord, so the cell is theirs bit for bit: Vec3
// temporaries would be stored and reloaded whole, at several times the
// cost of the arithmetic.
func (g *Grid) CellOf(p vec.Vec3) int {
	bx := &g.Box
	flat := 0
	for a := 0; a < 3; a++ {
		x, lo, hi := p[a], bx.Lo[a], bx.Hi[a]
		if !(x >= lo && x < hi) && bx.Periodic[a] {
			x = bx.WrapAxis(a, x)
		}
		n := g.Counts[a]
		flat = flat*n + min(max(int((x-lo)/(hi-lo)*float64(n)), 0), n-1)
	}
	return flat
}

// CellOfAtom returns the flat cell atom i was binned into by the latest
// Rebin.
func (g *Grid) CellOfAtom(i int) int { return int(g.cell[i]) }

// Atoms returns the atoms of cell c (aliases storage).
func (g *Grid) Atoms(c int) []int32 {
	return g.PartIndex[g.PStart[c]:g.PStart[c+1]]
}

// AtomCount returns how many atoms cell c holds.
func (g *Grid) AtomCount(c int) int {
	return int(g.PStart[c+1] - g.PStart[c])
}

// Rebin bins pos with one stable counting sort, O(N): each cell lists
// its atoms in ascending index order. The paper rebins together with
// the neighbor-list updates (§II.B). The buffers are reused across
// calls.
func (g *Grid) Rebin(pos []vec.Vec3) { g.RebinParallel(pos, nil) }

// RebinParallel is Rebin with the CellOf pass split over a worker pool
// (nil bins on the calling goroutine). The pool only fills cell[]; the
// counts, the prefix sum and the stable scatter stay serial, so the
// result is Rebin's whatever the pool.
func (g *Grid) RebinParallel(pos []vec.Vec3, pool Parallelizer) {
	if pool == nil {
		pool = Inline{}
	}
	nc := g.NumCells()
	g.PStart = resize(g.PStart, nc+1)
	clear(g.PStart)
	g.PartIndex = resize(g.PartIndex, len(pos))
	g.cell = resize(g.cell, len(pos))
	g.cursor = resize(g.cursor, nc)
	pool.ParallelFor(len(pos), func(start, end, _ int) {
		cell := g.cell[:len(pos)]
		for i := start; i < end; i++ {
			cell[i] = int32(g.CellOf(pos[i]))
		}
	})
	for _, c := range g.cell {
		g.PStart[c+1]++
	}
	for c := 0; c < nc; c++ {
		g.PStart[c+1] += g.PStart[c]
	}
	copy(g.cursor, g.PStart)
	for i, c := range g.cell {
		g.PartIndex[g.cursor[c]] = int32(i)
		g.cursor[c]++
	}
}

// Renumber records the binning of atoms just permuted into the grid's
// own order, new atom n being old atom PartIndex[n] (the permutation
// reorder.SpatialOrder returns): PartIndex becomes the identity, and
// atom n's cell is the c with PStart[c] <= n < PStart[c+1]. That is
// exactly what Rebin of the permuted positions computes, in O(N)
// without CellOf: CellOf is a pure function of position, so the counts
// and PStart are unchanged, and the stable scatter lists each cell's
// atoms, now consecutive, in ascending order.
func (g *Grid) Renumber() {
	n := int32(0)
	for c, end := range g.PStart[1:] {
		for ; n < end; n++ {
			g.PartIndex[n] = n
			g.cell[n] = int32(c)
		}
	}
}

// Parallelizer is the worker-pool capability the binning and the
// neighbor search borrow; strategy.Pool satisfies it (declared here to
// avoid a dependency cycle). ParallelFor must hand out contiguous
// chunks of [0, n) in tid order, tid in [0, Threads()), as the pool's
// static split does: the neighbor build joins its per-worker rows in
// tid order.
type Parallelizer interface {
	ParallelFor(n int, body func(start, end, tid int))
	Threads() int
}

// Inline is the Parallelizer without a pool: one chunk on the calling
// goroutine.
type Inline struct{}

// ParallelFor runs body(0, n, 0).
func (Inline) ParallelFor(n int, body func(start, end, tid int)) { body(0, n, 0) }

// Threads returns 1.
func (Inline) Threads() int { return 1 }

// resize returns s with length n, reallocating only when its capacity
// is short; the contents are not cleared.
func resize(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// Neighbor is one cell of a neighborhood: its flat index and the
// periodic shift of its image next to the home cell.
type Neighbor struct {
	Cell  int
	Shift vec.Vec3
}

// Neighborhood returns every cell in the 3×3×3 neighborhood of cell
// c, c included, in x-major order of the offsets, wrapping on periodic
// axes and stopping at open faces, and with the periodic shift of that
// cell's image: −L, 0 or +L per axis, so an atom at p in the cell lies
// at p+shift next to cell c. On an axis with fewer than 3 cells the
// wrapped offsets reach the same cell, so duplicates are dropped there,
// each neighbor cell is listed once, and its shift is that of the
// first offset reaching it. The cells are written into buf.
func (g *Grid) Neighborhood(c int, buf *[27]Neighbor) []Neighbor {
	type step struct {
		k int     // neighbor cell coordinate
		s float64 // its periodic shift
	}
	co := g.Unflatten(c)
	l := g.Box.Lengths()
	var steps [3][3]step
	var near [3][]step // distinct neighbor coordinates per axis
	for a := range near {
		near[a] = steps[a][:0]
		n := g.Counts[a]
		for d := -1; d <= 1; d++ {
			st := step{k: co[a] + d}
			if st.k < 0 || st.k >= n {
				if !g.Box.Periodic[a] {
					continue
				}
				if st.k < 0 {
					st = step{st.k + n, -l[a]}
				} else {
					st = step{st.k - n, l[a]}
				}
			}
			if n < 3 && slices.ContainsFunc(near[a], func(o step) bool { return o.k == st.k }) {
				continue
			}
			near[a] = append(near[a], st)
		}
	}
	k := 0
	for _, x := range near[0] {
		for _, y := range near[1] {
			for _, z := range near[2] {
				buf[k] = Neighbor{g.Flatten([3]int{x.k, y.k, z.k}), vec.Vec3{x.s, y.s, z.s}}
				k++
			}
		}
	}
	return buf[:k]
}
