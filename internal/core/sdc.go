// Package core implements the paper's primary contribution: the
// Spatial Decomposition Coloring (SDC) method (§II.B). The simulation
// box is split into subdomains whose edge along every decomposed axis is
// at least twice the interaction reach, with an even subdomain count per
// decomposed axis. Subdomains are colored red-black style — 2 colors in
// 1D, 4 in 2D, 8 in 3D — so no two subdomains of the same color are
// adjacent (including across periodic boundaries). All subdomains of one
// color can then run the irregular reductions rho[j] += …,
// force[j] -= … concurrently without locks: an atom's writes reach at
// most `reach` beyond its own subdomain, and same-colored subdomains are
// separated by at least 2·reach of differently-colored space.
//
// The atom partition is stored in the paper's exact CSR arrays
// (Fig. 7/8): PStart is pstart[], PartIndex is partindex[].
package core

import (
	"errors"
	"fmt"

	"sdcmd/internal/box"
	"sdcmd/internal/vec"
)

// Dim selects how many axes the decomposition splits.
type Dim int

// Decomposition dimensionalities. Dim1 splits x, Dim2 splits x and y,
// Dim3 splits all three axes, matching the paper's Figs. 4-6.
const (
	Dim1 Dim = 1
	Dim2 Dim = 2
	Dim3 Dim = 3
)

// String returns "1D", "2D" or "3D".
func (d Dim) String() string {
	switch d {
	case Dim1, Dim2, Dim3:
		return fmt.Sprintf("%dD", int(d))
	}
	return fmt.Sprintf("Dim(%d)", int(d))
}

// Colors returns the number of colors the dimensionality needs: 2^d.
func (d Dim) Colors() int {
	switch d {
	case Dim1:
		return 2
	case Dim2:
		return 4
	case Dim3:
		return 8
	}
	return 0
}

// Axes returns which axes are decomposed.
func (d Dim) Axes() []vec.Axis {
	switch d {
	case Dim1:
		return []vec.Axis{vec.X}
	case Dim2:
		return []vec.Axis{vec.X, vec.Y}
	case Dim3:
		return []vec.Axis{vec.X, vec.Y, vec.Z}
	}
	return nil
}

// ErrTooFewSubdomains reports that the box cannot be split into at
// least two subdomains of edge >= 2·reach along some decomposed axis.
// This is exactly the restriction behind the blank cells of the paper's
// Table 1 (1D SDC on the small case at high thread counts).
var ErrTooFewSubdomains = errors.New("core: cannot form an even number (>=2) of subdomains with edge >= 2*reach")

// Decomposition is a colored spatial partition of a box plus the CSR
// atom partition over it.
type Decomposition struct {
	// Box is the decomposed cell.
	Box box.Box
	// Dim is the decomposition dimensionality.
	Dim Dim
	// Reach is the interaction reach (cutoff + skin) the coloring is
	// safe for.
	Reach float64
	// Counts is the number of subdomains along each axis (1 on
	// non-decomposed axes); even on decomposed axes.
	Counts [3]int

	// PStart/PartIndex are the paper's pstart[]/partindex[] arrays:
	// atoms of subdomain s are PartIndex[PStart[s]:PStart[s+1]].
	PStart    []int32
	PartIndex []int32

	// ColorOf[s] is the color (0..Colors-1) of subdomain s.
	ColorOf []int8
	// ByColor[c] lists the subdomains of color c.
	ByColor [][]int32

	// axes are the split axes (defaults to Dim.Axes()).
	axes []vec.Axis
}

// Axes returns the split axes.
func (d *Decomposition) Axes() []vec.Axis { return d.axes }

// Decompose builds the SDC decomposition of pos in bx for interaction
// reach (pass cutoff+skin so the coloring remains safe for the life of
// the neighbor list). It returns ErrTooFewSubdomains when the geometry
// does not admit the required splitting. Dim1/2/3 split x / x,y /
// x,y,z; to split a different axis subset use DecomposeAxes.
func Decompose(bx box.Box, pos []vec.Vec3, d Dim, reach float64) (*Decomposition, error) {
	if d.Colors() == 0 {
		return nil, fmt.Errorf("core: invalid dimensionality %v", d)
	}
	return DecomposeAxes(bx, pos, d.Axes(), reach)
}

// DecomposeAxes is Decompose for an explicit set of split axes — e.g.
// the hybrid rank-level engine splits only {Y, Z} inside its x-slab.
// The axes must be distinct and non-empty.
func DecomposeAxes(bx box.Box, pos []vec.Vec3, axes []vec.Axis, reach float64) (*Decomposition, error) {
	if len(axes) < 1 || len(axes) > 3 {
		return nil, fmt.Errorf("core: need 1-3 split axes, got %d", len(axes))
	}
	seen := [3]bool{}
	for _, a := range axes {
		if a < 0 || a > 2 {
			return nil, fmt.Errorf("core: invalid axis %d", a)
		}
		if seen[a] {
			return nil, fmt.Errorf("core: duplicate axis %v", a)
		}
		seen[a] = true
	}
	if !(reach > 0) {
		return nil, fmt.Errorf("core: reach %g must be positive", reach)
	}
	dec := &Decomposition{Box: bx, Dim: Dim(len(axes)), Reach: reach,
		Counts: [3]int{1, 1, 1}, axes: append([]vec.Axis(nil), axes...)}
	l := bx.Lengths()
	for _, a := range axes {
		n := int(l[a] / (2 * reach)) // largest count with edge >= 2*reach
		n -= n % 2                   // paper step 1: even count per axis
		if n < 2 {
			return nil, fmt.Errorf("%w: axis %v length %g, reach %g (max %d subdomains)",
				ErrTooFewSubdomains, a, l[a], reach, int(l[a]/(2*reach)))
		}
		dec.Counts[a] = n
	}
	dec.color()
	dec.Rebin(pos)
	return dec, nil
}

// NumSubdomains returns the total subdomain count.
func (d *Decomposition) NumSubdomains() int {
	return d.Counts[0] * d.Counts[1] * d.Counts[2]
}

// NumColors returns the color count (2^Dim).
func (d *Decomposition) NumColors() int { return d.Dim.Colors() }

// SubdomainsPerColor returns how many subdomains carry each color. The
// coloring makes this exact (counts are even on decomposed axes), and
// it is the parallelism bound the paper's §IV discusses: a thread count
// above this value cannot be fully utilized.
func (d *Decomposition) SubdomainsPerColor() int {
	return d.NumSubdomains() / d.NumColors()
}

// EdgeLengths returns the subdomain edge along each axis.
func (d *Decomposition) EdgeLengths() vec.Vec3 {
	l := d.Box.Lengths()
	return vec.New(
		l[0]/float64(d.Counts[0]),
		l[1]/float64(d.Counts[1]),
		l[2]/float64(d.Counts[2]),
	)
}

// Flatten maps subdomain grid coordinates to the flat subdomain index.
func (d *Decomposition) Flatten(c [3]int) int {
	return (c[0]*d.Counts[1]+c[1])*d.Counts[2] + c[2]
}

// Unflatten is the inverse of Flatten.
func (d *Decomposition) Unflatten(s int) [3]int {
	z := s % d.Counts[2]
	s /= d.Counts[2]
	y := s % d.Counts[1]
	x := s / d.Counts[1]
	return [3]int{x, y, z}
}

// SubdomainOf returns the flat subdomain index containing position p.
func (d *Decomposition) SubdomainOf(p vec.Vec3) int {
	f := d.Box.FracCoord(d.Box.Wrap(p))
	var c [3]int
	for a := 0; a < 3; a++ {
		c[a] = int(f[a] * float64(d.Counts[a]))
		if c[a] >= d.Counts[a] {
			c[a] = d.Counts[a] - 1
		}
		if c[a] < 0 {
			c[a] = 0
		}
	}
	return d.Flatten(c)
}

// color assigns the red-black generalization: the color is the parity
// bit-pattern of the subdomain coordinates along decomposed axes
// (paper step 2). Even counts per axis make the pattern wrap cleanly
// across periodic boundaries.
func (d *Decomposition) color() {
	ns := d.NumSubdomains()
	nc := d.NumColors()
	d.ColorOf = make([]int8, ns)
	d.ByColor = make([][]int32, nc)
	per := ns / nc
	for c := range d.ByColor {
		d.ByColor[c] = make([]int32, 0, per)
	}
	for s := 0; s < ns; s++ {
		co := d.Unflatten(s)
		color := 0
		for bit, a := range d.axes {
			color |= (co[a] & 1) << bit
		}
		d.ColorOf[s] = int8(color)
		d.ByColor[color] = append(d.ByColor[color], int32(s))
	}
}

// Rebin recomputes the pstart/partindex CSR partition for new
// positions. The paper performs this together with neighbor-list
// updates (§II.B step notes); its cost is a counting sort, O(N).
func (d *Decomposition) Rebin(pos []vec.Vec3) {
	ns := d.NumSubdomains()
	if cap(d.PStart) >= ns+1 {
		d.PStart = d.PStart[:ns+1]
		for i := range d.PStart {
			d.PStart[i] = 0
		}
	} else {
		d.PStart = make([]int32, ns+1)
	}
	if cap(d.PartIndex) >= len(pos) {
		d.PartIndex = d.PartIndex[:len(pos)]
	} else {
		d.PartIndex = make([]int32, len(pos))
	}
	sub := make([]int32, len(pos))
	for i, p := range pos {
		s := d.SubdomainOf(p)
		sub[i] = int32(s)
		d.PStart[s+1]++
	}
	for s := 0; s < ns; s++ {
		d.PStart[s+1] += d.PStart[s]
	}
	cursor := make([]int32, ns)
	copy(cursor, d.PStart[:ns])
	for i := range pos {
		s := sub[i]
		d.PartIndex[cursor[s]] = int32(i)
		cursor[s]++
	}
}

// Atoms returns the atom indices of subdomain s (aliases storage).
func (d *Decomposition) Atoms(s int) []int32 {
	return d.PartIndex[d.PStart[s]:d.PStart[s+1]]
}

// AtomCount returns how many atoms subdomain s holds.
func (d *Decomposition) AtomCount(s int) int {
	return int(d.PStart[s+1] - d.PStart[s])
}

// ColorAtomCounts returns the total atoms per color — the load-balance
// figure the paper's uniform-density argument relies on.
func (d *Decomposition) ColorAtomCounts() []int {
	out := make([]int, d.NumColors())
	for s := 0; s < d.NumSubdomains(); s++ {
		out[d.ColorOf[s]] += d.AtomCount(s)
	}
	return out
}

// ForNeighborSubdomains calls fn with the flat index of every subdomain
// in the 3×3×3 neighborhood of s (including s itself), wrapping on
// periodic axes and suppressing duplicates when an axis has fewer than
// three subdomains.
func (d *Decomposition) ForNeighborSubdomains(s int, fn func(flat int)) {
	c := d.Unflatten(s)
	seen := make(map[int]struct{}, 27)
	for dx := -1; dx <= 1; dx++ {
		for dy := -1; dy <= 1; dy++ {
			for dz := -1; dz <= 1; dz++ {
				n := [3]int{c[0] + dx, c[1] + dy, c[2] + dz}
				ok := true
				for ax := 0; ax < 3; ax++ {
					if n[ax] < 0 || n[ax] >= d.Counts[ax] {
						if !d.Box.Periodic[ax] {
							ok = false
							break
						}
						n[ax] = ((n[ax] % d.Counts[ax]) + d.Counts[ax]) % d.Counts[ax]
					}
				}
				if !ok {
					continue
				}
				flat := d.Flatten(n)
				if _, dup := seen[flat]; dup {
					continue
				}
				seen[flat] = struct{}{}
				fn(flat)
			}
		}
	}
}

// Verify checks the SDC invariants; tests and debug builds call it
// after construction and after every Rebin.
//
//   - every decomposed axis has an even count >= 2 and edge >= 2·Reach
//   - per-color subdomain counts are exactly equal
//   - adjacent subdomains never share a color
//   - the CSR partition covers each atom exactly once and agrees with
//     SubdomainOf
func (d *Decomposition) Verify(pos []vec.Vec3) error {
	edges := d.EdgeLengths()
	for _, a := range d.axes {
		n := d.Counts[a]
		if n < 2 || n%2 != 0 {
			return fmt.Errorf("core: axis %v count %d not an even number >= 2", a, n)
		}
		if edges[a] < 2*d.Reach-1e-12 {
			return fmt.Errorf("core: axis %v edge %g < 2*reach %g", a, edges[a], 2*d.Reach)
		}
	}
	per := d.SubdomainsPerColor()
	for c, subs := range d.ByColor {
		if len(subs) != per {
			return fmt.Errorf("core: color %d has %d subdomains, want %d", c, len(subs), per)
		}
		for _, s := range subs {
			if int(d.ColorOf[s]) != c {
				return fmt.Errorf("core: subdomain %d in ByColor[%d] but ColorOf=%d", s, c, d.ColorOf[s])
			}
		}
	}
	ns := d.NumSubdomains()
	for s := 0; s < ns; s++ {
		var bad error
		d.ForNeighborSubdomains(s, func(o int) {
			if bad == nil && o != s && d.ColorOf[s] == d.ColorOf[o] {
				bad = fmt.Errorf("core: same-color subdomains %d and %d are adjacent", s, o)
			}
		})
		if bad != nil {
			return bad
		}
	}
	if len(d.PartIndex) != len(pos) {
		return fmt.Errorf("core: partition covers %d atoms, want %d", len(d.PartIndex), len(pos))
	}
	seen := make([]bool, len(pos))
	for s := 0; s < ns; s++ {
		for _, i := range d.Atoms(s) {
			if seen[i] {
				return fmt.Errorf("core: atom %d in two subdomains", i)
			}
			seen[i] = true
			if got := d.SubdomainOf(pos[i]); got != s {
				return fmt.Errorf("core: atom %d binned to %d but SubdomainOf=%d", i, s, got)
			}
		}
	}
	for i, ok := range seen {
		if !ok {
			return fmt.Errorf("core: atom %d missing from partition", i)
		}
	}
	return nil
}

// String summarizes the decomposition.
func (d *Decomposition) String() string {
	return fmt.Sprintf("sdc{%v, %d×%d×%d subdomains, %d colors, %d/color, reach=%g}",
		d.Dim, d.Counts[0], d.Counts[1], d.Counts[2], d.NumColors(), d.SubdomainsPerColor(), d.Reach)
}
