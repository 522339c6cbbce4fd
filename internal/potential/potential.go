// Package potential implements the interatomic potentials of the
// simulator: the Embedded-Atom Method (EAM) of Daw & Baskes that the
// paper's force loops evaluate, a Lennard-Jones pair potential as the
// "pair-wise potential" the paper contrasts EAM against (§I), and
// cubic-spline tabulated potentials in the setfl style used by real MD
// codes (XMD, LAMMPS).
//
// EAM total energy:
//
//	E = Σ_i F(ρ_i) + ½ Σ_i Σ_{j≠i} V(r_ij),   ρ_i = Σ_{j≠i} φ(r_ij)
//
// which yields the three computational phases the paper parallelizes:
// evaluating electron densities (eq. 1), evaluating embedding energies,
// and computing forces (eq. 2).
package potential

import (
	"errors"
	"fmt"
	"math"
)

// Pair is a radial pair interaction. Implementations must be pure
// functions of r, safe for concurrent use.
type Pair interface {
	// Name identifies the potential in logs and table files.
	Name() string
	// Cutoff returns r_c; Energy must return (0, 0) for r >= Cutoff.
	Cutoff() float64
	// Energy returns V(r) and its radial derivative dV/dr.
	Energy(r float64) (v, dv float64)
}

// EAM is a full embedded-atom potential. Implementations must be safe
// for concurrent use: the force engine calls these from many goroutines.
type EAM interface {
	Pair
	// Density returns the electron-density contribution φ(r) one atom
	// donates to a neighbor at distance r, and dφ/dr. Zero at/after the
	// cutoff.
	Density(r float64) (phi, dphi float64)
	// Embed returns the embedding energy F(ρ) and dF/dρ for host
	// electron density ρ.
	Embed(rho float64) (f, df float64)
}

// ErrBadParam reports an invalid potential parameterization.
var ErrBadParam = errors.New("potential: invalid parameter")

// CutoffSmoother is the C¹ switching function applied multiplicatively
// to V(r) and φ(r) so both go smoothly to zero at r_c: without it the
// truncated potential has a force discontinuity that destroys energy
// conservation in NVE runs.
//
//	s(r) = 1                                  r <= r_on
//	       ½(1 + cos(π (r−r_on)/(r_c−r_on)))  r_on < r < r_c
//	       0                                  r >= r_c
type CutoffSmoother struct {
	// On is r_on, the radius where tapering starts.
	On float64
	// Cut is r_c, the cutoff where the interaction vanishes.
	Cut float64
}

// NewCutoffSmoother validates 0 < on < cut.
func NewCutoffSmoother(on, cut float64) (CutoffSmoother, error) {
	if !(on > 0) || !(cut > on) {
		return CutoffSmoother{}, fmt.Errorf("%w: need 0 < on(%g) < cut(%g)", ErrBadParam, on, cut)
	}
	return CutoffSmoother{On: on, Cut: cut}, nil
}

// Eval returns s(r) and ds/dr. It inlines: the r <= On branch, where
// most pairs of a crystal sit, costs a compare, and the taper beyond it
// is a call.
func (c CutoffSmoother) Eval(r float64) (s, ds float64) {
	if r <= c.On {
		return 1, 0
	}
	return c.taper(r)
}

// taper is Eval beyond On.
func (c CutoffSmoother) taper(r float64) (s, ds float64) {
	if r >= c.Cut {
		return 0, 0
	}
	w := math.Pi / (c.Cut - c.On)
	x := (r - c.On) * w
	return 0.5 * (1 + math.Cos(x)), -0.5 * w * math.Sin(x)
}

// Apply smooths a raw (value, derivative) pair at radius r:
// (f·s, f'·s + f·s').
func (c CutoffSmoother) Apply(r, f, df float64) (sf, sdf float64) {
	s, ds := c.Eval(r)
	return f * s, df*s + f*ds
}

// NumericalDeriv estimates df/dr of a scalar function by central
// difference. It exists for tests and table validation; production code
// uses the analytic derivatives.
func NumericalDeriv(f func(float64) float64, r, h float64) float64 {
	return (f(r+h) - f(r-h)) / (2 * h)
}

// PairOnly adapts a plain pair potential to the EAM interface with zero
// density and embedding, so the pure pair-wise case (the paper's "one
// computational phase" comparison point) runs through the identical
// engine and strategies.
type PairOnly struct {
	P Pair
}

// Name returns the wrapped potential's name with a "pair:" prefix.
func (p PairOnly) Name() string { return "pair:" + p.P.Name() }

// Cutoff returns the wrapped cutoff.
func (p PairOnly) Cutoff() float64 { return p.P.Cutoff() }

// Energy returns the wrapped pair energy.
func (p PairOnly) Energy(r float64) (float64, float64) { return p.P.Energy(r) }

// Density is identically zero: a pair potential embeds nothing.
func (p PairOnly) Density(float64) (float64, float64) { return 0, 0 }

// Embed is identically zero.
func (p PairOnly) Embed(float64) (float64, float64) { return 0, 0 }

var _ EAM = PairOnly{}
