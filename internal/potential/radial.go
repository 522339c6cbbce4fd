package potential

import "math"

// Morse is the pair term of the analytic EAMs, before cutoff smoothing:
//
//	V(r) = D (e^{-2α(r−Re)} − 2 e^{-α(r−Re)})
//
// FeEAM holds one and BinaryAlloy one per species pair. It is a value
// of three floats, so the force engine's analytic kernels hold it in
// their closures and call Eval statically, with no interface dispatch.
type Morse struct {
	// D is the well depth (eV), Alpha the stiffness (1/Å) and Re the
	// equilibrium distance (Å).
	D, Alpha, Re float64
}

// Eval returns V(r) and dV/dr.
func (m Morse) Eval(r float64) (v, dv float64) {
	x := math.Exp(-m.Alpha * (r - m.Re))
	return m.D * (x*x - 2*x), m.D * m.Alpha * (-2*x*x + 2*x)
}

// ExpDensity is the electron density an atom of the analytic EAMs
// donates, before cutoff smoothing:
//
//	φ(r) = F0 · e^{−β (r/Re − 1)}
//
// FeEAM holds one and BinaryAlloy one per species.
type ExpDensity struct {
	// F0 is the density at Re, Beta the decay and Re the equilibrium
	// distance (Å).
	F0, Beta, Re float64
}

// Eval returns φ(r) and dφ/dr.
func (d ExpDensity) Eval(r float64) (phi, dphi float64) {
	phi = d.F0 * math.Exp(-d.Beta*(r/d.Re-1))
	return phi, -d.Beta / d.Re * phi
}
