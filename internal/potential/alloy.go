package potential

import (
	"fmt"
	"math"
)

// SpeciesParams parameterizes one species of a binary analytic alloy:
// the same functional forms as FeParams (Morse pair, exponential
// density, FS or Johnson embedding).
type SpeciesParams struct {
	// Element is a label ("Fe", "Cr", ...).
	Element string
	// Re, D, Alpha shape the like-pair Morse term.
	Re, D, Alpha float64
	// Fe0, Beta shape the density donation.
	Fe0, Beta float64
	// A is the FS embedding scale; if JohnsonEmbed, use Ec/N/RhoE.
	A            float64
	JohnsonEmbed bool
	Ec, N, RhoE  float64
}

// validate checks one species block.
func (p SpeciesParams) validate() error {
	if !(p.Re > 0) || !(p.D > 0) || !(p.Alpha > 0) || !(p.Fe0 > 0) || !(p.Beta > 0) {
		return fmt.Errorf("%w: species %q needs positive Re/D/Alpha/Fe0/Beta", ErrBadParam, p.Element)
	}
	if p.JohnsonEmbed {
		if !(p.Ec > 0) || !(p.N > 0) || !(p.RhoE > 0) {
			return fmt.Errorf("%w: species %q Johnson embed params", ErrBadParam, p.Element)
		}
	} else if !(p.A > 0) {
		return fmt.Errorf("%w: species %q FS embedding scale", ErrBadParam, p.Element)
	}
	return nil
}

// BinaryAlloy is a two-species analytic EAM — the paper's intro scopes
// EAM to "metals and alloys". Species are the indices 0 and 1. Cross
// pair interactions use Lorentz-Berthelot-style mixing:
// D_AB = √(D_A·D_B), α_AB = (α_A+α_B)/2, Re_AB = (Re_A+Re_B)/2.
// Its methods are pure and safe for concurrent use.
type BinaryAlloy struct {
	a, b   SpeciesParams
	smooth CutoffSmoother
	cut    float64
	// pair[si][sj] is the Morse term after mixing; density[s] is what
	// species s donates.
	pair    [2][2]Morse
	density [2]ExpDensity
}

// NewBinaryAlloy validates and builds the alloy with the given cutoff
// smoothing window.
func NewBinaryAlloy(a, b SpeciesParams, smoothOn, cut float64) (*BinaryAlloy, error) {
	if err := a.validate(); err != nil {
		return nil, err
	}
	if err := b.validate(); err != nil {
		return nil, err
	}
	sm, err := NewCutoffSmoother(smoothOn, cut)
	if err != nil {
		return nil, err
	}
	al := &BinaryAlloy{a: a, b: b, smooth: sm, cut: cut}
	sp := [2]SpeciesParams{a, b}
	for i := 0; i < 2; i++ {
		al.density[i] = ExpDensity{F0: sp[i].Fe0, Beta: sp[i].Beta, Re: sp[i].Re}
		for j := 0; j < 2; j++ {
			al.pair[i][j] = Morse{
				D:     math.Sqrt(sp[i].D * sp[j].D),
				Alpha: (sp[i].Alpha + sp[j].Alpha) / 2,
				Re:    (sp[i].Re + sp[j].Re) / 2,
			}
		}
	}
	return al, nil
}

// FeCrParams returns a plausible binary parameter set: iron plus a
// slightly stiffer, smaller "chromium-like" partner. Like the Fe
// potential itself, it is a structural stand-in with the right
// functional anatomy, not a fitted literature potential.
func FeCrParams() (fe, cr SpeciesParams) {
	fe = SpeciesParams{Element: "Fe", Re: 2.4824, D: 0.40, Alpha: 1.80, Fe0: 1.0, Beta: 3.5,
		JohnsonEmbed: true, Ec: 4.28, N: 0.5, RhoE: 8.0}
	cr = SpeciesParams{Element: "Cr", Re: 2.4980, D: 0.44, Alpha: 1.90, Fe0: 1.1, Beta: 3.6,
		JohnsonEmbed: true, Ec: 4.10, N: 0.5, RhoE: 8.5}
	return fe, cr
}

// MustNewBinaryAlloy is NewBinaryAlloy for parameters known valid at
// compile time; it panics on error.
func MustNewBinaryAlloy(a, b SpeciesParams, smoothOn, cut float64) *BinaryAlloy {
	al, err := NewBinaryAlloy(a, b, smoothOn, cut)
	if err != nil {
		panic(err)
	}
	return al
}

// DefaultFeCr builds the standard demo alloy.
func DefaultFeCr() *BinaryAlloy {
	fe, cr := FeCrParams()
	return MustNewBinaryAlloy(fe, cr, 3.0, 3.5)
}

// Name identifies the parameterization.
func (al *BinaryAlloy) Name() string {
	return fmt.Sprintf("eam/alloy:%s-%s", al.a.Element, al.b.Element)
}

// Species returns the species count.
func (al *BinaryAlloy) Species() int { return 2 }

// Cutoff is the global interaction cutoff.
func (al *BinaryAlloy) Cutoff() float64 { return al.cut }

// Morse returns the unsmoothed pair term of species si and sj.
func (al *BinaryAlloy) Morse(si, sj int) Morse { return al.pair[si][sj] }

// ExpDensity returns the unsmoothed density species s donates.
func (al *BinaryAlloy) ExpDensity(s int) ExpDensity { return al.density[s] }

// Smoother returns the cutoff smoother of every radial term.
func (al *BinaryAlloy) Smoother() CutoffSmoother { return al.smooth }

// PairEnergy returns V_{si,sj}(r) and dV/dr; it is symmetric under
// species exchange.
func (al *BinaryAlloy) PairEnergy(si, sj int, r float64) (float64, float64) {
	if r >= al.cut || r <= 0 {
		return 0, 0
	}
	v, dv := al.pair[si][sj].Eval(r)
	return al.smooth.Apply(r, v, dv)
}

// DensityOf returns the electron density an atom of species sDonor
// donates at distance r, and its derivative.
func (al *BinaryAlloy) DensityOf(sDonor int, r float64) (float64, float64) {
	if r >= al.cut || r <= 0 {
		return 0, 0
	}
	phi, dphi := al.density[sDonor].Eval(r)
	return al.smooth.Apply(r, phi, dphi)
}

// EmbedOf returns F_s(ρ) and dF/dρ for a host atom of species s.
func (al *BinaryAlloy) EmbedOf(s int, rho float64) (float64, float64) {
	if rho <= 0 {
		return 0, 0
	}
	p := al.species(s)
	if p.JohnsonEmbed {
		x := rho / p.RhoE
		xn := math.Pow(x, p.N)
		lnx := math.Log(x)
		f := -p.Ec * (1 - p.N*lnx) * xn
		df := -p.Ec * (-p.N * p.N * math.Pow(x, p.N-1) * lnx) / p.RhoE
		return f, df
	}
	sq := math.Sqrt(rho)
	return -p.A * sq, -p.A / (2 * sq)
}

// species returns species s's parameters by pointer: EmbedOf runs once
// per atom, and a copy of the struct per call is measurable.
func (al *BinaryAlloy) species(s int) *SpeciesParams {
	if s == 0 {
		return &al.a
	}
	return &al.b
}
