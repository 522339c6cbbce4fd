// Package box models the orthorhombic periodic simulation cell.
//
// The paper simulates pure bcc iron "under periodic boundary conditions"
// (§III.B); every distance that enters the EAM loops is a minimum-image
// distance with respect to this cell. The box also owns the coordinate
// wrapping used after each integration step and the affine strain used by
// the micro-deformation workload.
package box

import (
	"errors"
	"fmt"
	"math"

	"sdcmd/internal/vec"
)

// Box is an axis-aligned orthorhombic simulation cell spanning
// [Lo, Hi) in each dimension. Periodic[d] selects periodic wrapping on
// axis d; a non-periodic axis behaves as open space (no images).
//
// The zero Box is not valid; use New.
type Box struct {
	Lo, Hi   vec.Vec3
	Periodic [3]bool
}

// ErrDegenerate is returned by New when a box edge is not strictly
// positive.
var ErrDegenerate = errors.New("box: degenerate cell (edge length <= 0)")

// New constructs a box from its lower and upper corners with all axes
// periodic. It returns ErrDegenerate if any edge is <= 0.
func New(lo, hi vec.Vec3) (Box, error) {
	b := Box{Lo: lo, Hi: hi, Periodic: [3]bool{true, true, true}}
	for d := 0; d < 3; d++ {
		if !(hi[d] > lo[d]) {
			return Box{}, fmt.Errorf("%w: axis %s has [%g, %g)", ErrDegenerate, vec.Axis(d), lo[d], hi[d])
		}
	}
	return b, nil
}

// NewCube returns a periodic cube [0,L)³.
func NewCube(l float64) (Box, error) {
	return New(vec.Zero, vec.Splat(l))
}

// MustNew is New but panics on error; intended for literals in tests and
// examples where the dimensions are compile-time constants.
func MustNew(lo, hi vec.Vec3) Box {
	b, err := New(lo, hi)
	if err != nil {
		panic(err)
	}
	return b
}

// Lengths returns the edge lengths (Hi - Lo).
func (b Box) Lengths() vec.Vec3 { return b.Hi.Sub(b.Lo) }

// Volume returns the cell volume.
func (b Box) Volume() float64 {
	l := b.Lengths()
	return l[0] * l[1] * l[2]
}

// Center returns the cell midpoint.
func (b Box) Center() vec.Vec3 { return b.Lo.Add(b.Hi).Scale(0.5) }

// Contains reports whether p lies in [Lo, Hi) on every axis.
func (b Box) Contains(p vec.Vec3) bool {
	for d := 0; d < 3; d++ {
		if p[d] < b.Lo[d] || p[d] >= b.Hi[d] {
			return false
		}
	}
	return true
}

// Wrap maps p into the primary cell on every periodic axis. Coordinates
// on non-periodic axes are returned unchanged. Wrap is safe for points
// arbitrarily far outside the cell.
//
// An axis where x = p − Lo satisfies 0 < x < L is left as it is, with
// the same bits the full formula gives: floor(x/L) is +0 there, so
// p − L·0 is p, and x < L implies p < Hi because rounding is monotone.
// x = ±0 takes the full formula, which turns a −0 at Lo = 0 into +0.
func (b Box) Wrap(p vec.Vec3) vec.Vec3 {
	l := b.Lengths()
	for d := 0; d < 3; d++ {
		if !b.Periodic[d] {
			continue
		}
		if x := p[d] - b.Lo[d]; x > 0 && x < l[d] {
			continue
		}
		p[d] = b.WrapAxis(d, p[d])
	}
	return p
}

// WrapAxis is Wrap's formula on axis a alone, which it treats as
// periodic: p − L·floor((p−Lo)/L). A loop that wraps coordinates one
// at a time skips the axes where p − Lo lies in (0, L), as Wrap does,
// and calls it for the rest.
func (b *Box) WrapAxis(a int, p float64) float64 {
	l := b.Hi[a] - b.Lo[a]
	p -= l * math.Floor((p-b.Lo[a])/l)
	// Guard against p == Hi from floating-point rounding when the
	// argument was an exact negative multiple of the edge.
	if p >= b.Hi[a] {
		p = b.Lo[a]
	}
	return p
}

// WrapAll wraps every position in ps in place.
func (b Box) WrapAll(ps []vec.Vec3) {
	for i := range ps {
		ps[i] = b.Wrap(ps[i])
	}
}

// MinImage returns the minimum-image displacement d = pi - pj, i.e. the
// shortest vector from pj to pi under the cell's periodicity. Its
// components are guaranteed to lie in [-L/2, L/2] on periodic axes.
func (b Box) MinImage(pi, pj vec.Vec3) vec.Vec3 {
	d := pi.Sub(pj)
	l := b.Lengths()
	for a := 0; a < 3; a++ {
		if !b.Periodic[a] {
			continue
		}
		d[a] -= l[a] * math.Round(d[a]/l[a])
	}
	return d
}

// Image is a box's minimum-image convention in multiply form: each
// periodic axis's edge L and its inverse 1/L, both 0 on an open axis.
// Box.Image computes it once per box, so a pair loop pays a multiply
// per component where MinImage pays a division.
type Image struct {
	L, Inv vec.Vec3
}

// Image returns the box's precomputed minimum image.
func (b Box) Image() Image {
	var im Image
	l := b.Lengths()
	for a := range im.L {
		if b.Periodic[a] {
			im.L[a], im.Inv[a] = l[a], 1/l[a]
		}
	}
	return im
}

// Min applies the minimum image to the displacement (dx, dy, dz) =
// pᵢ − pⱼ: d − L·roundeven(d·(1/L)) on each axis. That can differ from
// MinImage's d − L·round(d/L) only when d/L lies within an ulp of
// k+½: d·(1/L) may round to the other side of the half, and an exact
// half rounds to even here and away from zero there. Either is a pair
// ≈ L/2 apart, which FitsCutoff puts beyond the cutoff; every other
// component equals MinImage's bit for bit. An open axis subtracts a
// zero (only a −0 component comes back as +0).
func (im Image) Min(dx, dy, dz float64) vec.Vec3 {
	return vec.Vec3{im.MinAxis(0, dx), im.MinAxis(1, dy), im.MinAxis(2, dz)}
}

// MinAxis is Min on axis a alone: d − L·roundeven(d·(1/L)). It rounds
// with math.RoundToEven, one SSE4.1 instruction on amd64, where
// math.Round is an inlined sequence of bit operations, so it is small
// enough that Min inlines too; a pair loop that calls it pays no call
// per pair. The pointer receiver spares the inlined body a copy of the
// Image.
func (im *Image) MinAxis(a int, d float64) float64 {
	return d - im.L[a]*math.RoundToEven(d*im.Inv[a])
}

// Distance2 returns the squared minimum-image distance between pi and pj.
func (b Box) Distance2(pi, pj vec.Vec3) float64 {
	return b.MinImage(pi, pj).Norm2()
}

// Distance returns the minimum-image distance between pi and pj.
func (b Box) Distance(pi, pj vec.Vec3) float64 {
	return math.Sqrt(b.Distance2(pi, pj))
}

// FitsCutoff reports whether the minimum-image convention is valid for
// interaction range rc, i.e. every periodic edge is at least 2*rc. With a
// shorter edge an atom would interact with two images of the same
// neighbor and the single-image neighbor list would be wrong.
func (b Box) FitsCutoff(rc float64) bool {
	l := b.Lengths()
	for d := 0; d < 3; d++ {
		if b.Periodic[d] && l[d] < 2*rc {
			return false
		}
	}
	return true
}

// Strained returns a copy of the box scaled by (1+eps[d]) on each axis
// about Lo. It implements the homogeneous cell deformation used by the
// micro-deformation workload; positions must be scaled with the same
// factors (see ApplyStrain).
func (b Box) Strained(eps vec.Vec3) Box {
	nb := b
	l := b.Lengths()
	for d := 0; d < 3; d++ {
		nb.Hi[d] = b.Lo[d] + l[d]*(1+eps[d])
	}
	return nb
}

// ApplyStrain scales positions about b.Lo by (1+eps[d]) per axis in
// place, matching Strained.
func (b Box) ApplyStrain(ps []vec.Vec3, eps vec.Vec3) {
	for i := range ps {
		for d := 0; d < 3; d++ {
			ps[i][d] = b.Lo[d] + (ps[i][d]-b.Lo[d])*(1+eps[d])
		}
	}
}

// FracCoord returns the fractional coordinate of p in [0,1)³ for points
// inside the cell (values outside the cell fall outside [0,1)).
func (b Box) FracCoord(p vec.Vec3) vec.Vec3 {
	l := b.Lengths()
	return vec.Vec3{
		(p[0] - b.Lo[0]) / l[0],
		(p[1] - b.Lo[1]) / l[1],
		(p[2] - b.Lo[2]) / l[2],
	}
}

// String formats the box corners and periodicity.
func (b Box) String() string {
	return fmt.Sprintf("box[%v .. %v, periodic=%v]", b.Lo, b.Hi, b.Periodic)
}
