// Package reorder implements the data-reordering locality optimization
// of the paper's §II.D: atoms are renumbered so that spatial neighbors
// are adjacent in memory, which turns the scattered accesses to rho[]
// and neighlist[] into near-sequential ones and packs neighindex[] /
// neighlen[] into regular arrays. The paper credits this with a 12 %
// serial and 39 % parallel runtime reduction on the large case; the
// harness's E3 experiment regenerates that comparison.
package reorder

import (
	"fmt"
	"math/rand"
	"sort"

	"sdcmd/internal/core"
	"sdcmd/internal/neighbor"
	"sdcmd/internal/vec"
)

// Permutation renumbers atoms. NewToOld[n] is the old index of the atom
// now called n; OldToNew is its inverse.
type Permutation struct {
	NewToOld []int32
	OldToNew []int32
}

// N returns the number of atoms the permutation covers.
func (p Permutation) N() int { return len(p.NewToOld) }

// Identity returns the do-nothing permutation on n atoms.
func Identity(n int) Permutation {
	p := Permutation{NewToOld: make([]int32, n), OldToNew: make([]int32, n)}
	for i := 0; i < n; i++ {
		p.NewToOld[i] = int32(i)
		p.OldToNew[i] = int32(i)
	}
	return p
}

// FromNewToOld builds a permutation from its NewToOld mapping,
// computing the inverse. It returns an error if the mapping is not a
// bijection on [0, n).
func FromNewToOld(newToOld []int32) (Permutation, error) {
	n := len(newToOld)
	inv := make([]int32, n)
	for i := range inv {
		inv[i] = -1
	}
	for newIdx, old := range newToOld {
		if old < 0 || int(old) >= n {
			return Permutation{}, fmt.Errorf("reorder: index %d out of range [0,%d)", old, n)
		}
		if inv[old] != -1 {
			return Permutation{}, fmt.Errorf("reorder: index %d appears twice", old)
		}
		inv[old] = int32(newIdx)
	}
	cp := append([]int32(nil), newToOld...)
	return Permutation{NewToOld: cp, OldToNew: inv}, nil
}

// Validate checks the two mappings are mutually inverse bijections.
func (p Permutation) Validate() error {
	if len(p.NewToOld) != len(p.OldToNew) {
		return fmt.Errorf("reorder: mapping lengths differ: %d vs %d", len(p.NewToOld), len(p.OldToNew))
	}
	for newIdx, old := range p.NewToOld {
		if old < 0 || int(old) >= len(p.OldToNew) {
			return fmt.Errorf("reorder: NewToOld[%d]=%d out of range", newIdx, old)
		}
		if int(p.OldToNew[old]) != newIdx {
			return fmt.Errorf("reorder: inverse broken at new=%d old=%d", newIdx, old)
		}
	}
	return nil
}

// SpatialOrder derives the locality permutation from a binned grid:
// atoms are renumbered in cell-major order (the grid's CSR PartIndex),
// so each cell's atoms — and therefore most neighbor pairs — become
// contiguous. This is the §II.D.1 "sequence accessing on irregular
// array" transformation; on the SDC decomposition's grid it is also the
// cache-blocking reorder after which every subdomain is one dense index
// range.
func SpatialOrder(g *core.Grid) Permutation {
	p, err := FromNewToOld(g.PartIndex)
	if err != nil {
		// The grid bins each atom exactly once, so this is unreachable
		// unless the grid is corrupt — a programmer error.
		//lint:ignore no-panic corrupt cell grid is a programmer error, not a recoverable condition
		panic(err)
	}
	return p
}

// Scramble returns a uniformly random permutation; the experiment
// harness uses it to construct the *de*-optimized baseline the paper's
// §II.D improvement is measured against. It is a convenience wrapper
// over ScrambleRand with a locally seeded source, so two calls with the
// same seed produce bit-identical permutations regardless of any other
// randomness in the process.
func Scramble(n int, seed int64) Permutation {
	return ScrambleRand(n, rand.New(rand.NewSource(seed)))
}

// ScrambleRand returns a uniformly random permutation drawn from an
// explicit source. Callers that scramble several arrays in one
// experiment thread one *rand.Rand through all of them, keeping the
// whole experiment a pure function of one seed.
func ScrambleRand(n int, rng *rand.Rand) Permutation {
	newToOld := make([]int32, n)
	for i := range newToOld {
		newToOld[i] = int32(i)
	}
	rng.Shuffle(n, func(i, j int) { newToOld[i], newToOld[j] = newToOld[j], newToOld[i] })
	p, err := FromNewToOld(newToOld)
	if err != nil {
		//lint:ignore no-panic unreachable: a shuffle of the identity is a bijection
		panic(err)
	}
	return p
}

// ApplyVec3 returns the reordered copy dst[new] = src[NewToOld[new]].
func (p Permutation) ApplyVec3(src []vec.Vec3) []vec.Vec3 {
	if len(src) != p.N() {
		//lint:ignore no-panic length-mismatch precondition: programmer error, documented contract
		panic(fmt.Sprintf("reorder: ApplyVec3 length %d != permutation %d", len(src), p.N()))
	}
	dst := make([]vec.Vec3, len(src))
	for newIdx, old := range p.NewToOld {
		dst[newIdx] = src[old]
	}
	return dst
}

// ApplyFloat64 returns the reordered copy of a per-atom scalar array.
func (p Permutation) ApplyFloat64(src []float64) []float64 {
	if len(src) != p.N() {
		//lint:ignore no-panic length-mismatch precondition: programmer error, documented contract
		panic(fmt.Sprintf("reorder: ApplyFloat64 length %d != permutation %d", len(src), p.N()))
	}
	dst := make([]float64, len(src))
	for newIdx, old := range p.NewToOld {
		dst[newIdx] = src[old]
	}
	return dst
}

// UnapplyVec3 maps a reordered array back to the original order.
func (p Permutation) UnapplyVec3(src []vec.Vec3) []vec.Vec3 {
	if len(src) != p.N() {
		//lint:ignore no-panic length-mismatch precondition: programmer error, documented contract
		panic(fmt.Sprintf("reorder: UnapplyVec3 length %d != permutation %d", len(src), p.N()))
	}
	dst := make([]vec.Vec3, len(src))
	for newIdx, old := range p.NewToOld {
		dst[old] = src[newIdx]
	}
	return dst
}

// RemapList renumbers a neighbor list under the permutation, preserving
// its half/full convention: for a half list every pair is re-stored
// under the smaller *new* index so the j > i invariant holds after
// renaming. Neighbor slices stay sorted.
func (p Permutation) RemapList(l *neighbor.List) *neighbor.List {
	if l.N() != p.N() {
		//lint:ignore no-panic length-mismatch precondition: programmer error, documented contract
		panic(fmt.Sprintf("reorder: RemapList atoms %d != permutation %d", l.N(), p.N()))
	}
	n := l.N()
	buckets := make([][]int32, n)
	for i := 0; i < n; i++ {
		ni := p.OldToNew[i]
		for _, j := range l.Neighbors(i) {
			nj := p.OldToNew[j]
			if l.Half {
				a, b := ni, nj
				if a > b {
					a, b = b, a
				}
				buckets[a] = append(buckets[a], b)
			} else {
				buckets[ni] = append(buckets[ni], nj)
			}
		}
	}
	out := &neighbor.List{
		Half:   l.Half,
		Cutoff: l.Cutoff,
		Skin:   l.Skin,
		Index:  make([]int32, n),
		Len:    make([]int32, n),
	}
	var total int32
	for i := 0; i < n; i++ {
		sort.Slice(buckets[i], func(a, b int) bool { return buckets[i][a] < buckets[i][b] })
		out.Index[i] = total
		out.Len[i] = int32(len(buckets[i]))
		total += out.Len[i]
	}
	out.Neigh = make([]int32, total)
	for i := 0; i < n; i++ {
		copy(out.Neigh[out.Index[i]:], buckets[i])
	}
	return out
}

// LocalityScore measures how sequential a list's neighbor accesses are:
// the mean |j − i| over all stored pairs, lower is better. It lets
// tests assert that SpatialOrder actually improves layout and gives the
// perf model its cache-quality input.
func LocalityScore(l *neighbor.List) float64 {
	if l.Pairs() == 0 {
		return 0
	}
	var sum float64
	for i := 0; i < l.N(); i++ {
		for _, j := range l.Neighbors(i) {
			d := int(j) - i
			if d < 0 {
				d = -d
			}
			sum += float64(d)
		}
	}
	return sum / float64(l.Pairs())
}
