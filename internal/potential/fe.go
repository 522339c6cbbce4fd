package potential

import (
	"fmt"
	"math"
)

// FeParams parameterizes the analytic bcc-iron EAM used for the paper's
// workloads. The functional forms follow the analytic-EAM tradition for
// bcc transition metals (Johnson 1989; Finnis & Sinclair 1984):
//
//	pair     V(r) = D (e^{-2a(r-Re)} − 2 e^{-a(r-Re)})   (Morse)
//	density  φ(r) = Fe · e^{-β (r/Re − 1)}
//	embed    F(ρ) = −A √ρ                                 (Finnis–Sinclair)
//	      or F(ρ) = −Ec [1 − n ln(ρ/ρe)] (ρ/ρe)^n         (Johnson universal)
//
// Both V and φ are multiplied by the C¹ cutoff smoother. The paper does
// not publish its XMD potential tables; any parameterization with the
// same three-phase structure reproduces the computational behaviour the
// experiments measure (see DESIGN.md §4).
type FeParams struct {
	// Re is the equilibrium nearest-neighbor distance in Å.
	Re float64
	// D and Alpha shape the Morse pair term (eV, 1/Å).
	D, Alpha float64
	// Fe0 and Beta shape the exponential density.
	Fe0, Beta float64
	// A scales the Finnis–Sinclair square-root embedding (eV).
	A float64
	// JohnsonEmbed switches to the Johnson universal embedding function
	// with parameters Ec (eV), N, and RhoE (equilibrium host density).
	JohnsonEmbed bool
	Ec, N, RhoE  float64
	// SmoothOn and Cut bound the cutoff smoothing region (Å).
	SmoothOn, Cut float64
}

// DefaultFeParams returns the parameter set used throughout the
// experiments: bcc Fe with a₀ = 2.8665 Å (Re = a₀·√3/2), a cutoff of
// 3.5 Å that captures the first two neighbor shells (2.48 Å, 2.87 Å),
// and Finnis–Sinclair embedding.
func DefaultFeParams() FeParams {
	return FeParams{
		Re:       2.8665 * math.Sqrt(3) / 2, // 2.4824 Å
		D:        0.40,
		Alpha:    1.80,
		Fe0:      1.0,
		Beta:     3.5,
		A:        1.20,
		SmoothOn: 3.0,
		Cut:      3.5,
	}
}

// JohnsonFeParams returns the alternative parameter set with the
// Johnson universal embedding function, exercising the second embedding
// branch.
func JohnsonFeParams() FeParams {
	p := DefaultFeParams()
	p.JohnsonEmbed = true
	p.Ec = 4.28 // Fe cohesive energy, eV
	p.N = 0.5
	p.RhoE = 8.0 // ≈ 8 first-shell neighbors at full density
	return p
}

// Validate checks the parameter set for physical sanity.
func (p FeParams) Validate() error {
	switch {
	case !(p.Re > 0):
		return fmt.Errorf("%w: Re=%g must be positive", ErrBadParam, p.Re)
	case !(p.D > 0) || !(p.Alpha > 0):
		return fmt.Errorf("%w: Morse D=%g, Alpha=%g must be positive", ErrBadParam, p.D, p.Alpha)
	case !(p.Fe0 > 0) || !(p.Beta > 0):
		return fmt.Errorf("%w: density Fe0=%g, Beta=%g must be positive", ErrBadParam, p.Fe0, p.Beta)
	case !(p.SmoothOn > 0) || !(p.Cut > p.SmoothOn):
		return fmt.Errorf("%w: need 0 < SmoothOn(%g) < Cut(%g)", ErrBadParam, p.SmoothOn, p.Cut)
	}
	if p.JohnsonEmbed {
		if !(p.Ec > 0) || !(p.N > 0) || !(p.RhoE > 0) {
			return fmt.Errorf("%w: Johnson embed needs Ec(%g), N(%g), RhoE(%g) > 0", ErrBadParam, p.Ec, p.N, p.RhoE)
		}
	} else if !(p.A > 0) {
		return fmt.Errorf("%w: Finnis–Sinclair A=%g must be positive", ErrBadParam, p.A)
	}
	return nil
}

// FeEAM is the analytic iron EAM. The zero value is unusable; construct
// with NewFeEAM.
type FeEAM struct {
	p       FeParams
	pair    Morse
	density ExpDensity
	smooth  CutoffSmoother
}

// NewFeEAM validates p and builds the potential.
func NewFeEAM(p FeParams) (*FeEAM, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	sm, err := NewCutoffSmoother(p.SmoothOn, p.Cut)
	if err != nil {
		return nil, err
	}
	return &FeEAM{
		p:       p,
		pair:    Morse{D: p.D, Alpha: p.Alpha, Re: p.Re},
		density: ExpDensity{F0: p.Fe0, Beta: p.Beta, Re: p.Re},
		smooth:  sm,
	}, nil
}

// MustNewFeEAM panics on invalid parameters (for fixed literals).
func MustNewFeEAM(p FeParams) *FeEAM {
	e, err := NewFeEAM(p)
	if err != nil {
		panic(err)
	}
	return e
}

// DefaultFe returns the standard experiment potential.
func DefaultFe() *FeEAM { return MustNewFeEAM(DefaultFeParams()) }

// Name implements Pair.
func (e *FeEAM) Name() string {
	if e.p.JohnsonEmbed {
		return "eam/fe-johnson"
	}
	return "eam/fe-fs"
}

// Cutoff implements Pair.
func (e *FeEAM) Cutoff() float64 { return e.p.Cut }

// Params returns a copy of the parameter set.
func (e *FeEAM) Params() FeParams { return e.p }

// Morse returns the unsmoothed pair term.
func (e *FeEAM) Morse() Morse { return e.pair }

// ExpDensity returns the unsmoothed density term.
func (e *FeEAM) ExpDensity() ExpDensity { return e.density }

// Smoother returns the cutoff smoother of both radial terms.
func (e *FeEAM) Smoother() CutoffSmoother { return e.smooth }

// Energy returns the smoothed Morse pair energy and dV/dr.
func (e *FeEAM) Energy(r float64) (float64, float64) {
	if r >= e.p.Cut || r <= 0 {
		return 0, 0
	}
	v, dv := e.pair.Eval(r)
	return e.smooth.Apply(r, v, dv)
}

// Density returns the smoothed exponential density and dφ/dr.
func (e *FeEAM) Density(r float64) (float64, float64) {
	if r >= e.p.Cut || r <= 0 {
		return 0, 0
	}
	phi, dphi := e.density.Eval(r)
	return e.smooth.Apply(r, phi, dphi)
}

// Embed returns F(ρ) and dF/dρ.
func (e *FeEAM) Embed(rho float64) (float64, float64) {
	if rho <= 0 {
		// √ρ and ln ρ are singular at 0; by continuity F(0)=0 and the
		// slope is clamped. ρ=0 only happens for isolated atoms.
		return 0, 0
	}
	if e.p.JohnsonEmbed {
		x := rho / e.p.RhoE
		xn := math.Pow(x, e.p.N)
		lnx := math.Log(x)
		f := -e.p.Ec * (1 - e.p.N*lnx) * xn
		// dF/dρ = −Ec/ρe · N x^{n−1} (−n ln x)  — derivative of the
		// universal form; simplifies because d/dx[(1−n ln x)x^n] =
		// −n x^{n−1} ln x · n + ... do it directly:
		// g(x) = (1 − n ln x) x^n
		// g'(x) = −n/x·x^n + (1−n ln x)·n x^{n−1} = n x^{n−1}(−1 + 1 − n ln x)
		//       = −n² x^{n−1} ln x
		df := -e.p.Ec * (-e.p.N * e.p.N * math.Pow(x, e.p.N-1) * lnx) / e.p.RhoE
		return f, df
	}
	s := math.Sqrt(rho)
	return -e.p.A * s, -e.p.A / (2 * s)
}

var _ EAM = (*FeEAM)(nil)
