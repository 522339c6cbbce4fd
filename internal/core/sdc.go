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
	"math"

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

// Decomposition is a colored spatial partition of a box: the embedded
// Grid holds the subdomains and the CSR atom partition over them, and
// the decomposition adds their coloring.
type Decomposition struct {
	// Grid is the subdomain grid. Its Counts are even on decomposed
	// axes and 1 elsewhere; its PStart/PartIndex are the paper's
	// pstart[]/partindex[] arrays: atoms of subdomain s are
	// PartIndex[PStart[s]:PStart[s+1]].
	Grid
	// Dim is the decomposition dimensionality.
	Dim Dim
	// Reach is the interaction reach (cutoff + skin) the coloring is
	// safe for.
	Reach float64

	// ColorOf[s] is the color (0..Colors-1) of subdomain s.
	ColorOf []int8
	// ByColor[c] lists the subdomains of color c.
	ByColor [][]int32
}

// Decompose builds the SDC decomposition of pos in bx for interaction
// reach (pass cutoff+skin so the coloring remains safe for the life of
// the neighbor list). It returns ErrTooFewSubdomains when the geometry
// does not admit the required splitting. Dim1/2/3 split x / x,y /
// x,y,z.
func Decompose(bx box.Box, pos []vec.Vec3, d Dim, reach float64) (*Decomposition, error) {
	if d.Colors() == 0 {
		return nil, fmt.Errorf("core: invalid dimensionality %v", d)
	}
	if !(reach > 0) {
		return nil, fmt.Errorf("core: reach %g must be positive", reach)
	}
	counts := [3]int{1, 1, 1}
	l := bx.Lengths()
	for _, a := range d.Axes() {
		// Largest count with edge >= 2*reach; the clamp only keeps the
		// conversion defined; NewGrid rejects anything above MaxCells.
		n := int(min(l[a]/(2*reach), math.MaxInt32))
		n -= n % 2 // paper step 1: even count per axis
		if n < 2 {
			return nil, fmt.Errorf("%w: axis %v length %g, reach %g (max %d subdomains)",
				ErrTooFewSubdomains, a, l[a], reach, int(l[a]/(2*reach)))
		}
		counts[a] = n
	}
	g, err := NewGrid(bx, counts)
	if err != nil {
		return nil, err
	}
	dec := &Decomposition{Grid: *g, Dim: d, Reach: reach}
	dec.color()
	dec.Rebin(pos)
	return dec, nil
}

// NumSubdomains returns the total subdomain count.
func (d *Decomposition) NumSubdomains() int { return d.NumCells() }

// NumColors returns the color count (2^Dim).
func (d *Decomposition) NumColors() int { return d.Dim.Colors() }

// SubdomainsPerColor returns how many subdomains carry each color. The
// coloring makes this exact (counts are even on decomposed axes), and
// it is the parallelism bound the paper's §IV discusses: a thread count
// above this value cannot be fully utilized.
func (d *Decomposition) SubdomainsPerColor() int {
	return d.NumSubdomains() / d.NumColors()
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
	axes := d.Dim.Axes()
	for s := 0; s < ns; s++ {
		co := d.Unflatten(s)
		color := 0
		for bit, a := range axes {
			color |= (co[a] & 1) << bit
		}
		d.ColorOf[s] = int8(color)
		d.ByColor[color] = append(d.ByColor[color], int32(s))
	}
}

// Verify checks the SDC invariants; tests and debug builds call it
// after construction and after every Rebin.
//
//   - every decomposed axis has an even count >= 2 and edge >= 2·Reach
//   - per-color subdomain counts are exactly equal
//   - adjacent subdomains never share a color
//   - the CSR partition covers each atom exactly once and agrees with
//     CellOf
func (d *Decomposition) Verify(pos []vec.Vec3) error {
	edges := d.EdgeLengths()
	for _, a := range d.Dim.Axes() {
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
	var buf [27]Neighbor
	for s := 0; s < ns; s++ {
		for _, nb := range d.Neighborhood(s, &buf) {
			if o := nb.Cell; o != s && d.ColorOf[s] == d.ColorOf[o] {
				return fmt.Errorf("core: same-color subdomains %d and %d are adjacent", s, o)
			}
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
			if got := d.CellOf(pos[i]); got != s {
				return fmt.Errorf("core: atom %d binned to %d but CellOf=%d", i, s, got)
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
