// Package neighbor builds the Verlet neighbor lists at the heart of the
// paper's force loops (the CSR arrays neighindex[], neighlen[],
// neighlist[] of Figs. 1/2/7/8), via a linked-cell grid — the same
// core.Grid the SDC decomposition bins with — so construction is O(N)
// instead of O(N²). A brute-force builder with identical semantics
// serves as the correctness oracle.
package neighbor

import (
	"fmt"
	"slices"
	"sort"

	"sdcmd/internal/box"
	"sdcmd/internal/core"
	"sdcmd/internal/vec"
)

// List is a CSR Verlet neighbor list, the exact data layout of the
// paper's Figs. 1/2/7/8: Index is neighindex[], Len is neighlen[], and
// Neigh is neighlist[]. A half list stores each pair once (j > i) and
// relies on the reductions rho[j] += …, force[j] -= … the paper
// parallelizes; a full list stores both directions and is what the
// Redundant-Computations strategy consumes.
type List struct {
	// Half records whether each pair appears once (true) or twice.
	Half bool
	// Cutoff is the interaction cutoff rc the list was built for.
	Cutoff float64
	// Skin is the extra shell captured so the list survives some motion.
	Skin float64
	// Index[i] is the offset of atom i's neighbors in Neigh.
	Index []int32
	// Len[i] is atom i's neighbor count.
	Len []int32
	// Neigh holds the neighbor atom indices.
	Neigh []int32

	// rows keeps the row buffers of the search's workers after the
	// first, so that a rebuild into this list allocates none.
	rows [][]int32
}

// N returns the number of atoms the list covers.
func (l *List) N() int { return len(l.Index) }

// Pairs returns the number of stored (i,j) entries.
func (l *List) Pairs() int { return len(l.Neigh) }

// Neighbors returns atom i's neighbor slice (aliases internal storage).
func (l *List) Neighbors(i int) []int32 {
	s := l.Index[i]
	return l.Neigh[s : s+l.Len[i]]
}

// Stats summarizes a built list for workload accounting; the perf model
// feeds on these numbers.
type Stats struct {
	Atoms    int
	Pairs    int
	MinLen   int
	MaxLen   int
	MeanLen  float64
	HalfList bool
}

// Stats computes summary statistics.
func (l *List) Stats() Stats {
	st := Stats{Atoms: l.N(), Pairs: l.Pairs(), HalfList: l.Half, MinLen: int(^uint(0) >> 1)}
	if st.Atoms == 0 {
		st.MinLen = 0
		return st
	}
	for _, n := range l.Len {
		if int(n) < st.MinLen {
			st.MinLen = int(n)
		}
		if int(n) > st.MaxLen {
			st.MaxLen = int(n)
		}
	}
	st.MeanLen = float64(st.Pairs) / float64(st.Atoms)
	return st
}

// Validate performs structural checks: offsets in range, half-list
// ordering (j > i), no self pairs, no duplicates per atom. It is O(pairs
// log pairs) and intended for tests and debug runs.
func (l *List) Validate() error {
	n := l.N()
	if len(l.Len) != n {
		return fmt.Errorf("neighbor: Index/Len length mismatch %d vs %d", n, len(l.Len))
	}
	for i := 0; i < n; i++ {
		s, ln := l.Index[i], l.Len[i]
		if s < 0 || ln < 0 || int(s)+int(ln) > len(l.Neigh) {
			return fmt.Errorf("neighbor: atom %d CSR range [%d,%d) out of bounds", i, s, int(s)+int(ln))
		}
		nb := l.Neighbors(i)
		seen := make(map[int32]struct{}, len(nb))
		for _, j := range nb {
			if int(j) == i {
				return fmt.Errorf("neighbor: atom %d lists itself", i)
			}
			if j < 0 || int(j) >= n {
				return fmt.Errorf("neighbor: atom %d lists out-of-range neighbor %d", i, j)
			}
			if l.Half && int(j) < i {
				return fmt.Errorf("neighbor: half list atom %d lists smaller index %d", i, j)
			}
			if _, dup := seen[j]; dup {
				return fmt.Errorf("neighbor: atom %d lists %d twice", i, j)
			}
			seen[j] = struct{}{}
		}
	}
	return nil
}

// PairSet returns the canonical set of unordered pairs {min(i,j),
// max(i,j)} for comparison between builders (test helper).
func (l *List) PairSet() map[[2]int32]struct{} {
	set := make(map[[2]int32]struct{}, l.Pairs())
	for i := 0; i < l.N(); i++ {
		for _, j := range l.Neighbors(i) {
			a, b := int32(i), j
			if a > b {
				a, b = b, a
			}
			set[[2]int32{a, b}] = struct{}{}
		}
	}
	return set
}

// ToFull converts a half list into the equivalent full list (each pair
// stored in both directions). The Redundant-Computations strategy needs
// this: it doubles pair work in exchange for race-free writes, and its
// extra memory footprint is exactly the doubling the paper calls out.
func (l *List) ToFull() *List {
	if !l.Half {
		cp := *l
		cp.rows = nil
		cp.Index = append([]int32(nil), l.Index...)
		cp.Len = append([]int32(nil), l.Len...)
		cp.Neigh = append([]int32(nil), l.Neigh...)
		return &cp
	}
	n := l.N()
	counts := make([]int32, n)
	copy(counts, l.Len)
	for i := 0; i < n; i++ {
		for _, j := range l.Neighbors(i) {
			counts[j]++
		}
	}
	full := &List{
		Half:   false,
		Cutoff: l.Cutoff,
		Skin:   l.Skin,
		Index:  make([]int32, n),
		Len:    make([]int32, n),
		Neigh:  make([]int32, 2*l.Pairs()),
	}
	var off int32
	for i := 0; i < n; i++ {
		full.Index[i] = off
		off += counts[i]
	}
	cursor := append([]int32(nil), full.Index...)
	for i := 0; i < n; i++ {
		for _, j := range l.Neighbors(i) {
			full.Neigh[cursor[i]] = j
			cursor[i]++
			full.Neigh[cursor[j]] = int32(i)
			cursor[j]++
		}
	}
	for i := 0; i < n; i++ {
		full.Len[i] = cursor[i] - full.Index[i]
	}
	// Keep each atom's neighbors sorted for deterministic traversal.
	for i := 0; i < n; i++ {
		nb := full.Neighbors(i)
		sort.Slice(nb, func(a, b int) bool { return nb[a] < nb[b] })
	}
	return full
}

// Builder configures neighbor-list construction.
type Builder struct {
	// Cutoff is the interaction range rc (> 0).
	Cutoff float64
	// Skin is the Verlet skin added to rc when searching (>= 0); the
	// list then stays valid until some atom moves more than Skin/2.
	Skin float64
	// Half selects half (j > i) or full lists.
	Half bool
}

// NewCellGrid bins pos into the finest core.Grid whose cells are at
// least reach wide, so all neighbors within reach of an atom lie in
// the 27 cells around its own. An axis shorter than reach gets one
// cell. The grid never has more cells than atoms (nor than
// core.MaxCells): the finest axis is halved until it fits, and wider
// cells still hold every neighbor, so a tiny reach or a sparse system
// only costs extra candidates.
func NewCellGrid(bx box.Box, pos []vec.Vec3, reach float64) (*core.Grid, error) {
	g, err := CellGrid(bx, len(pos), reach)
	if err != nil {
		return nil, err
	}
	g.Rebin(pos)
	return g, nil
}

// CellGrid returns the grid NewCellGrid picks for atoms atoms, not yet
// binned. A caller that bins it itself, on its own pool and at every
// rebuild, hands it to Builder.RebuildBinned.
func CellGrid(bx box.Box, atoms int, reach float64) (*core.Grid, error) {
	if !(reach > 0) {
		return nil, fmt.Errorf("neighbor: cell reach %g must be positive", reach)
	}
	limit := max(1, min(atoms, core.MaxCells))
	l := bx.Lengths()
	var counts [3]int
	for a := range counts {
		counts[a] = int(max(1, min(l[a]/reach, float64(limit))))
	}
	for counts[0]*counts[1]*counts[2] > limit {
		a := 0
		for b := 1; b < 3; b++ {
			if counts[b] > counts[a] {
				a = b
			}
		}
		counts[a] = (counts[a] + 1) / 2
	}
	return core.NewGrid(bx, counts)
}

// Build constructs the list with a cell grid (O(N)) on the calling
// goroutine; when the grid has fewer than 3 cells along some axis (a
// small box or a sparse system) it transparently falls back to the
// exact O(N²) search.
func (b Builder) Build(bx box.Box, pos []vec.Vec3) (*List, error) {
	return b.BuildParallel(bx, pos, nil)
}

// BuildParallel is Build with the candidate search split over a worker
// pool. The list is identical to Build's. The pool is only borrowed;
// nil searches on the calling goroutine.
func (b Builder) BuildParallel(bx box.Box, pos []vec.Vec3, pool core.Parallelizer) (*List, error) {
	return b.Rebuild(nil, bx, pos, pool)
}

// Rebuild is BuildParallel reusing the arrays of old, a list the
// caller no longer reads (nil allocates afresh). Use the returned list:
// it is old unless the small-box fallback ran. On error old is left
// untouched. It bins a CellGrid of its own on the same pool.
//
// The search is one pass over the atoms with the periodic image applied
// once per stencil cell, not once per pair: core.Grid.Neighborhood
// lists each neighbor cell's shift s, and a candidate j of atom i
// costs one test |(pᵢ − pⱼ) − s|² < reach². Cells at least reach wide
// and at least 3 per axis make s exactly MinImage's L·round(d/L) for
// every pair within reach, so the test is BuildBruteForce's bit for
// bit. That holds only for positions in the primary cell; any other
// input is searched through a wrapped copy.
//
// A worker keeps the stencil of the cell its previous atom lay in, so
// consecutive atoms of one cell share it. A cell lists its atoms in
// ascending order, so a half list skips every stencil cell whose last
// atom is not above i, and the atoms up to i of the others. A row is
// sorted only when its neighbors came out of order; on atoms numbered
// in cell order (the order SpatialOrder of this grid gives) they almost
// never do. Each worker appends its rows to its own buffer, and the
// buffers are joined in chunk order, which is atom order.
func (b Builder) Rebuild(old *List, bx box.Box, pos []vec.Vec3, pool core.Parallelizer) (*List, error) {
	if err := b.validate(bx); err != nil {
		return nil, err
	}
	grid, err := CellGrid(bx, len(pos), b.Cutoff+b.Skin)
	if err != nil {
		return nil, err
	}
	return b.search(old, grid, pos, pool, false)
}

// RebuildBinned is Rebuild searching grid, a CellGrid of grid.Box for
// this builder's reach that the caller binned from pos, instead of
// binning one. It never changes grid: positions outside the primary
// cell are searched through a wrapped copy binned into a grid of its
// own. A grid whose cells are narrower than the reach, or that bins a
// different atom count, is an error.
func (b Builder) RebuildBinned(old *List, grid *core.Grid, pos []vec.Vec3, pool core.Parallelizer) (*List, error) {
	if err := b.validate(grid.Box); err != nil {
		return nil, err
	}
	if len(grid.PartIndex) != len(pos) {
		return nil, fmt.Errorf("neighbor: grid bins %d atoms, not %d", len(grid.PartIndex), len(pos))
	}
	l := grid.Box.Lengths()
	for a, n := range grid.Counts {
		if n > max(1, int(l[a]/(b.Cutoff+b.Skin))) {
			return nil, fmt.Errorf("neighbor: %d cells on axis %d are narrower than cutoff+skin %g", n, a, b.Cutoff+b.Skin)
		}
	}
	return b.search(old, grid, pos, pool, true)
}

// search builds the list from grid over pos, as Rebuild describes;
// binned says that grid already bins pos.
func (b Builder) search(old *List, grid *core.Grid, pos []vec.Vec3, pool core.Parallelizer, binned bool) (*List, error) {
	bx := grid.Box
	if pool == nil {
		pool = core.Inline{}
	}
	if !inPrimaryCell(bx, pos) {
		pos = append([]vec.Vec3(nil), pos...)
		for i, p := range pos {
			// Wrap can round a point at Hi to just below Lo.
			p = bx.Wrap(p)
			for a := range p {
				if bx.Periodic[a] {
					p[a] = max(p[a], bx.Lo[a])
				}
			}
			pos[i] = p
		}
		if binned {
			g, err := core.NewGrid(bx, grid.Counts)
			if err != nil {
				return nil, err
			}
			grid, binned = g, false
		}
	}
	if grid.Counts[0] < 3 || grid.Counts[1] < 3 || grid.Counts[2] < 3 {
		return b.BuildBruteForce(bx, pos)
	}
	if !binned {
		grid.RebinParallel(pos, pool)
	}
	n := len(pos)
	reach := b.Cutoff + b.Skin
	reach2 := reach * reach
	l := old
	if l == nil {
		l = &List{}
	}
	// Worker 0 fills the outgoing Neigh array in place; the others
	// append to the buffers they kept on the list at its last build, or
	// start with room for an even share of it.
	rows := l.rows
	if len(rows) != pool.Threads() {
		rows = make([][]int32, pool.Threads())
	}
	*l = List{Half: b.Half, Cutoff: b.Cutoff, Skin: b.Skin,
		Index: resize(l.Index, n), Len: resize(l.Len, n), Neigh: l.Neigh[:0], rows: rows}
	rows[0] = l.Neigh
	for t := 1; t < len(rows); t++ {
		if rows[t] == nil {
			rows[t] = make([]int32, 0, cap(l.Neigh)/len(rows))
		}
		rows[t] = rows[t][:0]
	}
	pool.ParallelFor(n, func(start, end, tid int) {
		row := rows[tid]
		// The worker keeps the neighborhood of its previous atom's cell.
		home, buf := -1, [27]core.Neighbor{}
		var cells []core.Neighbor
		for i := start; i < end; i++ {
			first := len(row)
			me := int32(i)
			// A half list skips every candidate j <= i. A full list takes
			// i itself, at distance 0 in its home cell, and drops it below.
			lo := int32(-1)
			if b.Half {
				lo = me
			}
			xi, yi, zi := pos[i][0], pos[i][1], pos[i][2]
			if c := grid.CellOfAtom(i); c != home {
				home, cells = c, grid.Neighborhood(c, &buf)
			}
			for _, sc := range cells {
				atoms := grid.Atoms(sc.Cell)
				if len(atoms) == 0 || atoms[len(atoms)-1] <= lo {
					continue
				}
				for atoms[0] <= lo {
					atoms = atoms[1:]
				}
				// Every candidate is written, and kept by advancing k only
				// when it is within reach: a flag added, where a branch
				// would mispredict on most kept pairs. The components are
				// scalars, so no Vec3 is copied per candidate.
				row = slices.Grow(row, len(atoms))
				k := len(row)
				out := row[:k+len(atoms)]
				sx, sy, sz := sc.Shift[0], sc.Shift[1], sc.Shift[2]
				for _, j := range atoms {
					pj := &pos[j]
					dx, dy, dz := xi-pj[0]-sx, yi-pj[1]-sy, zi-pj[2]-sz
					out[k] = j
					k += b2i(dx*dx+dy*dy+dz*dz < reach2)
				}
				row = out[:k]
			}
			if !b.Half {
				if k := slices.Index(row[first:], me); k >= 0 {
					row = slices.Delete(row, first+k, first+k+1)
				}
			}
			if nb := row[first:]; !slices.IsSorted(nb) {
				slices.Sort(nb)
			}
			l.Len[i] = int32(len(row) - first)
		}
		rows[tid] = row
	})
	var total int32
	for i, k := range l.Len {
		l.Index[i] = total
		total += k
	}
	l.Neigh, rows[0] = rows[0], nil
	for _, row := range rows[1:] {
		l.Neigh = append(l.Neigh, row...)
	}
	return l, nil
}

// b2i is 1 for true and 0 for false, without a branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// resize returns s with length n, reusing its array when it is long
// enough; the contents are not cleared.
func resize(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// inPrimaryCell reports whether every position lies in [Lo, Hi) on
// every periodic axis of bx.
func inPrimaryCell(bx box.Box, pos []vec.Vec3) bool {
	for _, p := range pos {
		for a := range p {
			if bx.Periodic[a] && (p[a] < bx.Lo[a] || p[a] >= bx.Hi[a]) {
				return false
			}
		}
	}
	return true
}

// validate rejects a cutoff, skin or box no list can be built for.
func (b Builder) validate(bx box.Box) error {
	if !(b.Cutoff > 0) {
		return fmt.Errorf("neighbor: cutoff %g must be positive", b.Cutoff)
	}
	if b.Skin < 0 {
		return fmt.Errorf("neighbor: skin %g must be non-negative", b.Skin)
	}
	if reach := b.Cutoff + b.Skin; !bx.FitsCutoff(reach) {
		return fmt.Errorf("neighbor: box %v too small for cutoff+skin %g (minimum image violated)", bx, reach)
	}
	return nil
}

// BuildBruteForce is the exact O(N²) construction used as the test
// oracle and as the small-box fallback.
func (b Builder) BuildBruteForce(bx box.Box, pos []vec.Vec3) (*List, error) {
	if err := b.validate(bx); err != nil {
		return nil, err
	}
	reach := b.Cutoff + b.Skin
	n := len(pos)
	reach2 := reach * reach
	nb := make([][]int32, n)
	for i := 0; i < n; i++ {
		start := 0
		if b.Half {
			start = i + 1
		}
		for j := start; j < n; j++ {
			if j == i {
				continue
			}
			if bx.Distance2(pos[i], pos[j]) < reach2 {
				nb[i] = append(nb[i], int32(j))
			}
		}
	}
	l := &List{Half: b.Half, Cutoff: b.Cutoff, Skin: b.Skin,
		Index: make([]int32, n), Len: make([]int32, n)}
	var total int32
	for i := 0; i < n; i++ {
		l.Index[i] = total
		total += int32(len(nb[i]))
	}
	l.Neigh = make([]int32, total)
	for i := 0; i < n; i++ {
		copy(l.Neigh[l.Index[i]:], nb[i])
		l.Len[i] = int32(len(nb[i]))
	}
	return l, nil
}

// MaxDisplacement2 returns the largest squared minimum-image
// displacement between two position snapshots; a list built at old is
// stale once this exceeds (Skin/2)². md's integrator takes the same
// per-atom term inside its drift pass. It applies the image of
// box.Image, which rounds an atom's displacement as Box.MinImage does
// unless the atom moved about L/2, far past any skin.
func MaxDisplacement2(bx box.Box, old, cur []vec.Vec3) float64 {
	im := bx.Image()
	old = old[:len(cur)]
	worst := 0.0
	for i, c := range cur {
		o := old[i]
		if d2 := im.Min(c[0]-o[0], c[1]-o[1], c[2]-o[2]).Norm2(); d2 > worst {
			worst = d2
		}
	}
	return worst
}
