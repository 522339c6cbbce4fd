package force

import (
	"math"

	"sdcmd/internal/potential"
	"sdcmd/internal/strategy"
	"sdcmd/internal/vec"
)

// radial holds the radial terms of an analytic potential, copied out of
// a *potential.FeEAM by NewEngine or a *potential.BinaryAlloy by
// NewAlloyEngine: the Morse term of each species pair, the density each
// species donates, and the smoother of both. A FeEAM fills species 0
// only. The static kernels call these values' Eval methods directly:
// no interface dispatch, and the smoother's r <= On branch inlines, so
// a density pair makes two calls (ExpDensity.Eval and its exp) and a
// force pair four (six for an alloy pair of unlike species). Every
// kernel smooths as CutoffSmoother.Apply does, with the same
// operations in the same order, so each value and derivative has the
// bits of the potential's own methods.
type radial struct {
	pair   [2][2]potential.Morse
	dens   [2]potential.ExpDensity
	smooth potential.CutoffSmoother
}

// slope is the derivative of a smoothed radial term, (f·s)′ = f′·s + f·s′,
// with Apply's operations.
func slope(f, df, s, ds float64) float64 { return df*s + f*ds }

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
func (e *Engine) feDensityTerms() strategy.Terms[float64] {
	dens, sm, cut := e.rad.dens[0], e.rad.smooth, e.cutoff
	return func(i int32, js []int32, ci, cj []float64) {
		ci, cj = ci[:len(js)], cj[:len(js)]
		e.dists(i, js, ci)
		for k, r := range ci {
			if r <= 0 || r >= cut {
				ci[k], cj[k] = 0, 0
				continue
			}
			phi, _ := dens.Eval(r)
			s, _ := sm.Eval(r)
			ci[k], cj[k] = phi*s, phi*s
		}
	}
}

// feForceTerms is forceTerms for a FeEAM: the pair force of eq. (2)
// from the smoothed V′(r) and φ′(r).
func (e *Engine) feForceTerms() strategy.Terms[vec.Vec3] {
	fp, cut := e.fp, e.cutoff
	pair, dens, sm := e.rad.pair[0][0], e.rad.dens[0], e.rad.smooth
	return func(i int32, js []int32, ci, _ []vec.Vec3) {
		ci = ci[:len(js)]
		e.disps(i, js, ci)
		fpi := fp[i]
		for k, j := range js {
			d := &ci[k]
			r := math.Sqrt(d[0]*d[0] + d[1]*d[1] + d[2]*d[2])
			if r <= 0 || r >= cut {
				*d = vec.Vec3{}
				continue
			}
			v, dv := pair.Eval(r)
			phi, dphi := dens.Eval(r)
			s, ds := sm.Eval(r)
			coeff := slope(v, dv, s, ds) + (fpi+fp[j])*slope(phi, dphi, s, ds)
			f := -coeff / r
			d[0], d[1], d[2] = f*d[0], f*d[1], f*d[2]
		}
	}
}
