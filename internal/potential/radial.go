package potential

import "math"

// Morse is the pair term of the analytic EAMs, before cutoff smoothing:
//
//	V(r) = D (e^{-2α(r−Re)} − 2 e^{-α(r−Re)})
//
// FeEAM holds one and BinaryAlloy one per species pair. It is a value
// of three floats, so the force engine's analytic kernels hold it in
// their closures and call it statically, with no interface dispatch.
// Each formula is written once: Eval is FromExp(math.Exp(Arg(r))), and
// the kernels run Arg and FromExp around one Exps per chunk of pairs.
type Morse struct {
	// D is the well depth (eV), Alpha the stiffness (1/Å) and Re the
	// equilibrium distance (Å).
	D, Alpha, Re float64
}

// Eval returns V(r) and dV/dr.
func (m Morse) Eval(r float64) (v, dv float64) { return m.FromExp(math.Exp(m.Arg(r))) }

// Arg returns the exponent −α(r−Re) of V's exponential at r.
func (m Morse) Arg(r float64) float64 { return -m.Alpha * (r - m.Re) }

// FromExp returns V and dV/dr from x = e^{Arg(r)}: the kernels that
// batch their exponentials with Exps finish each pair with it.
func (m Morse) FromExp(x float64) (v, dv float64) {
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
func (d ExpDensity) Eval(r float64) (phi, dphi float64) { return d.FromExp(math.Exp(d.Arg(r))) }

// Arg returns the exponent −β(r/Re − 1) of φ at r.
func (d ExpDensity) Arg(r float64) float64 { return -d.Beta * (r/d.Re - 1) }

// FromExp returns φ and dφ/dr from x = e^{Arg(r)}.
func (d ExpDensity) FromExp(x float64) (phi, dphi float64) {
	phi = d.F0 * x
	return phi, -d.Beta / d.Re * phi
}
