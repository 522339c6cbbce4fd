package force

import (
	"math"
	"unsafe"

	"sdcmd/internal/potential"
	"sdcmd/internal/strategy"
	"sdcmd/internal/vec"
)

// radial holds the radial terms of an analytic potential, copied out of
// a *potential.FeEAM by NewEngine or a *potential.BinaryAlloy by
// NewAlloyEngine: the Morse term of each species pair, the density each
// species donates, and the smoother of both. A FeEAM fills species 0
// only. The static kernels call these values' methods directly, with
// no interface dispatch, and batch their exponentials: one loop writes
// a chunk's exponents (Arg), one potential.Exps call takes them all,
// and a last loop finishes each pair (FromExp). Every value and
// derivative has the bits of the potential's own methods: Exps returns
// math.Exp's bits, FromExp and Arg are Eval's two halves, and every
// kernel smooths as CutoffSmoother.Apply does, with the same operations
// in the same order. A pair outside (0, cut) still gets its exponents,
// which Exps takes with the others, and the finish loop zeroes it.
type radial struct {
	pair   [2][2]potential.Morse
	dens   [2]potential.ExpDensity
	smooth potential.CutoffSmoother
}

// slope is the derivative of a smoothed radial term, (f·s)′ = f′·s + f·s′,
// with Apply's operations.
func slope(f, df, s, ds float64) float64 { return df*s + f*ds }

// planes lays three planes of len(v) floats each over the 3·len(v)
// float64 components of v, and returns them and all, the three in one,
// each aliasing v: a vector kernel keeps a chunk's exponents in planes
// of cj, so that one Exps call takes them all. The planes are built,
// not sliced, so a kernel indexes them by the pairs of its chunk with
// no bounds check.
func planes(v []vec.Vec3) (all, p0, p1, p2 []float64) {
	n := len(v)
	p := unsafe.Pointer(unsafe.SliceData(v))
	plane := func(k int) []float64 { return unsafe.Slice((*float64)(unsafe.Add(p, 8*k*n)), n) }
	return unsafe.Slice((*float64)(p), 3*n), plane(0), plane(1), plane(2)
}

// feTerms evaluate a *potential.FeEAM: its two pair sweeps per step call
// the hoisted radial terms statically, and its embedding and pair energy
// go through the interface, once per atom or outside the step.
var feTerms = terms{
	density: (*Engine).feDensityTerms,
	embed:   (*Engine).embedTerm,
	force:   (*Engine).feForceTerms,
	pair:    (*Engine).pairTerms,
}

// feDensityTerms is densityTerms for a FeEAM: ρ gains the smoothed
// exponential density φ(r)·s(r) both ways, and nothing outside (0, cut).
// The exponents go through cj.
func (e *Engine) feDensityTerms() strategy.Terms[float64] {
	dens, sm, cut := e.rad.dens[0], e.rad.smooth, e.cutoff
	return func(i int32, js []int32, ci, cj []float64) {
		ci, cj = ci[:len(js)], cj[:len(js)]
		e.dists(i, js, ci)
		for k, r := range ci {
			cj[k] = dens.Arg(r)
		}
		potential.Exps(cj)
		for k, r := range ci {
			if r <= 0 || r >= cut {
				ci[k], cj[k] = 0, 0
				continue
			}
			phi, _ := dens.FromExp(cj[k])
			s, _ := sm.Eval(r)
			ci[k], cj[k] = phi*s, phi*s
		}
	}
}

// feForceTerms is forceTerms for a FeEAM: the pair force of eq. (2)
// from the smoothed V′(r) and φ′(r). cj's floats hold the pair
// exponents, the density exponents and r, a plane of len(js) each.
func (e *Engine) feForceTerms() strategy.Terms[vec.Vec3] {
	fp, cut := e.fp, e.cutoff
	pair, dens, sm := e.rad.pair[0][0], e.rad.dens[0], e.rad.smooth
	return func(i int32, js []int32, ci, cj []vec.Vec3) {
		n := len(js)
		ci = ci[:n]
		e.disps(i, js, ci)
		x, xv, xd, rs := planes(cj[:n])
		for k := range ci {
			d := &ci[k]
			r := math.Sqrt(d[0]*d[0] + d[1]*d[1] + d[2]*d[2])
			xv[k], xd[k], rs[k] = pair.Arg(r), dens.Arg(r), r
		}
		potential.Exps(x[:2*n])
		fpi := fp[i]
		for k, j := range js {
			d, r := &ci[k], rs[k]
			if r <= 0 || r >= cut {
				*d = vec.Vec3{}
				continue
			}
			v, dv := pair.FromExp(xv[k])
			phi, dphi := dens.FromExp(xd[k])
			s, ds := sm.Eval(r)
			coeff := slope(v, dv, s, ds) + (fpi+fp[j])*slope(phi, dphi, s, ds)
			f := -coeff / r
			d[0], d[1], d[2] = f*d[0], f*d[1], f*d[2]
		}
	}
}
