package potential

import (
	"math"
	"testing"
	"testing/quick"
)

func TestCutoffSmootherValidation(t *testing.T) {
	if _, err := NewCutoffSmoother(0, 1); err == nil {
		t.Error("on=0 accepted")
	}
	if _, err := NewCutoffSmoother(2, 1); err == nil {
		t.Error("on>cut accepted")
	}
	if _, err := NewCutoffSmoother(1, 2); err != nil {
		t.Errorf("valid smoother rejected: %v", err)
	}
}

func TestCutoffSmootherShape(t *testing.T) {
	c, _ := NewCutoffSmoother(2, 3)
	if s, ds := c.Eval(1.5); s != 1 || ds != 0 {
		t.Errorf("below on: s=%g ds=%g", s, ds)
	}
	if s, ds := c.Eval(3.5); s != 0 || ds != 0 {
		t.Errorf("beyond cut: s=%g ds=%g", s, ds)
	}
	if s, _ := c.Eval(2.5); math.Abs(s-0.5) > 1e-12 {
		t.Errorf("midpoint s=%g, want 0.5", s)
	}
	// Monotone non-increasing across the taper.
	prev := 1.01
	for r := 2.0; r <= 3.0; r += 0.01 {
		s, _ := c.Eval(r)
		if s > prev+1e-12 {
			t.Fatalf("smoother not monotone at r=%g", r)
		}
		prev = s
	}
}

func TestCutoffSmootherDerivative(t *testing.T) {
	c, _ := NewCutoffSmoother(2, 3)
	for _, r := range []float64{2.1, 2.3, 2.5, 2.7, 2.9} {
		_, ds := c.Eval(r)
		num := NumericalDeriv(func(x float64) float64 { s, _ := c.Eval(x); return s }, r, 1e-6)
		if math.Abs(ds-num) > 1e-6 {
			t.Errorf("ds(%g) = %g, numeric %g", r, ds, num)
		}
	}
}

func TestCutoffSmootherContinuity(t *testing.T) {
	c, _ := NewCutoffSmoother(2, 3)
	// C0 and C1 at both taper boundaries.
	for _, r := range []float64{2, 3} {
		sl, dl := c.Eval(r - 1e-9)
		sr, dr := c.Eval(r + 1e-9)
		if math.Abs(sl-sr) > 1e-6 || math.Abs(dl-dr) > 1e-5 {
			t.Errorf("discontinuity at r=%g: (%g,%g) vs (%g,%g)", r, sl, dl, sr, dr)
		}
	}
}

func TestFeParamsValidate(t *testing.T) {
	good := DefaultFeParams()
	if err := good.Validate(); err != nil {
		t.Fatalf("default params invalid: %v", err)
	}
	mut := []func(*FeParams){
		func(p *FeParams) { p.Re = 0 },
		func(p *FeParams) { p.D = -1 },
		func(p *FeParams) { p.Alpha = 0 },
		func(p *FeParams) { p.Fe0 = 0 },
		func(p *FeParams) { p.Beta = -2 },
		func(p *FeParams) { p.A = 0 },
		func(p *FeParams) { p.SmoothOn = 0 },
		func(p *FeParams) { p.Cut = p.SmoothOn },
		func(p *FeParams) { p.JohnsonEmbed = true; p.Ec = 0 },
		func(p *FeParams) { p.JohnsonEmbed = true; p.Ec = 1; p.N = 0 },
		func(p *FeParams) { p.JohnsonEmbed = true; p.Ec = 1; p.N = 1; p.RhoE = 0 },
	}
	for i, m := range mut {
		p := DefaultFeParams()
		m(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
		if _, err := NewFeEAM(p); err == nil {
			t.Errorf("NewFeEAM accepted mutation %d", i)
		}
	}
	if err := JohnsonFeParams().Validate(); err != nil {
		t.Errorf("Johnson params invalid: %v", err)
	}
}

func TestMustNewFeEAMPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNewFeEAM must panic on bad params")
		}
	}()
	p := DefaultFeParams()
	p.Re = -1
	MustNewFeEAM(p)
}

func TestFeEnergyShape(t *testing.T) {
	e := DefaultFe()
	p := e.Params()
	// Morse minimum at Re (inside the unsmoothed region).
	vmin, dvmin := e.Energy(p.Re)
	if math.Abs(vmin-(-p.D)) > 1e-12 {
		t.Errorf("V(Re) = %g, want %g", vmin, -p.D)
	}
	if math.Abs(dvmin) > 1e-10 {
		t.Errorf("V'(Re) = %g, want 0", dvmin)
	}
	// Repulsive inside, attractive outside.
	if v, _ := e.Energy(p.Re * 0.7); v <= 0 {
		t.Errorf("V at 0.7 Re = %g, want repulsive", v)
	}
	if v, _ := e.Energy(p.Re * 1.2); v >= 0 {
		t.Errorf("V at 1.2 Re = %g, want attractive", v)
	}
	// Zero at/after cutoff.
	if v, dv := e.Energy(p.Cut); v != 0 || dv != 0 {
		t.Errorf("V(cut) = %g, %g", v, dv)
	}
	if v, dv := e.Energy(p.Cut + 1); v != 0 || dv != 0 {
		t.Errorf("V(cut+1) = %g, %g", v, dv)
	}
	if v, dv := e.Energy(0); v != 0 || dv != 0 {
		t.Errorf("V(0) must be 0,0 got %g, %g", v, dv)
	}
}

func TestFeEnergyDerivativeNumeric(t *testing.T) {
	for _, e := range []EAM{DefaultFe(), MustNewFeEAM(JohnsonFeParams())} {
		for r := 1.5; r < e.Cutoff(); r += 0.07 {
			_, dv := e.Energy(r)
			num := NumericalDeriv(func(x float64) float64 { v, _ := e.Energy(x); return v }, r, 1e-6)
			if math.Abs(dv-num) > 1e-5*(1+math.Abs(dv)) {
				t.Errorf("%s: dV(%g) = %g, numeric %g", e.Name(), r, dv, num)
			}
		}
	}
}

func TestFeDensity(t *testing.T) {
	e := DefaultFe()
	p := e.Params()
	// Positive, monotonically decreasing before the taper; derivative matches.
	prev := math.Inf(1)
	for r := 0.5; r < p.Cut; r += 0.05 {
		phi, dphi := e.Density(r)
		if phi < 0 {
			t.Fatalf("φ(%g) = %g < 0", r, phi)
		}
		if phi > prev+1e-12 {
			t.Fatalf("φ not monotone at %g", r)
		}
		prev = phi
		num := NumericalDeriv(func(x float64) float64 { v, _ := e.Density(x); return v }, r, 1e-6)
		if math.Abs(dphi-num) > 1e-5*(1+math.Abs(dphi)) {
			t.Errorf("dφ(%g) = %g, numeric %g", r, dphi, num)
		}
	}
	if phi, dphi := e.Density(p.Cut + 0.1); phi != 0 || dphi != 0 {
		t.Error("density beyond cutoff must vanish")
	}
}

func TestFeEmbed(t *testing.T) {
	for _, e := range []*FeEAM{DefaultFe(), MustNewFeEAM(JohnsonFeParams())} {
		if f, df := e.Embed(0); f != 0 || df != 0 {
			t.Errorf("%s: F(0) = %g, %g", e.Name(), f, df)
		}
		if f, df := e.Embed(-1); f != 0 || df != 0 {
			t.Errorf("%s: F(-1) = %g, %g", e.Name(), f, df)
		}
		// Embedding is negative (cohesive) at physical densities.
		if f, _ := e.Embed(4.0); f >= 0 {
			t.Errorf("%s: F(4) = %g, want negative", e.Name(), f)
		}
		for rho := 0.5; rho < 16; rho += 0.9 {
			_, df := e.Embed(rho)
			num := NumericalDeriv(func(x float64) float64 { v, _ := e.Embed(x); return v }, rho, 1e-6)
			if math.Abs(df-num) > 1e-5*(1+math.Abs(df)) {
				t.Errorf("%s: dF(%g) = %g, numeric %g", e.Name(), rho, df, num)
			}
		}
	}
}

func TestJohnsonEmbedMinimumAtRhoE(t *testing.T) {
	e := MustNewFeEAM(JohnsonFeParams())
	p := e.Params()
	// The universal form has dF/dρ = 0 at ρ = ρe and F(ρe) = −Ec.
	f, df := e.Embed(p.RhoE)
	if math.Abs(f+p.Ec) > 1e-10 {
		t.Errorf("F(ρe) = %g, want %g", f, -p.Ec)
	}
	if math.Abs(df) > 1e-10 {
		t.Errorf("F'(ρe) = %g, want 0", df)
	}
}

func TestFeNames(t *testing.T) {
	if DefaultFe().Name() != "eam/fe-fs" {
		t.Error("FS name wrong")
	}
	if MustNewFeEAM(JohnsonFeParams()).Name() != "eam/fe-johnson" {
		t.Error("Johnson name wrong")
	}
}

func TestLJValidation(t *testing.T) {
	if _, err := NewLennardJones(0, 1, 2, 2.5); err == nil {
		t.Error("eps=0 accepted")
	}
	if _, err := NewLennardJones(1, 0, 2, 2.5); err == nil {
		t.Error("sigma=0 accepted")
	}
	if _, err := NewLennardJones(1, 1, 3, 2.5); err == nil {
		t.Error("on>cut accepted")
	}
}

func TestLJShape(t *testing.T) {
	lj := DefaultLJ()
	if lj.Name() != "lj/12-6" {
		t.Error("name wrong")
	}
	// Zero crossing at sigma.
	if v, _ := lj.Energy(1); math.Abs(v) > 1e-12 {
		t.Errorf("V(σ) = %g", v)
	}
	// Minimum −ε at 2^(1/6)σ (inside the smooth region).
	v, dv := lj.Energy(lj.RMin())
	if math.Abs(v-lj.WellDepth()) > 1e-12 {
		t.Errorf("V(rmin) = %g, want %g", v, lj.WellDepth())
	}
	if math.Abs(dv) > 1e-10 {
		t.Errorf("V'(rmin) = %g", dv)
	}
	if v, dv := lj.Energy(2.5); v != 0 || dv != 0 {
		t.Error("LJ at cutoff must vanish")
	}
	if v, dv := lj.Energy(0); v != 0 || dv != 0 {
		t.Error("LJ at r=0 guard failed")
	}
}

func TestLJDerivativeNumeric(t *testing.T) {
	lj := DefaultLJ()
	for r := 0.8; r < 2.5; r += 0.05 {
		_, dv := lj.Energy(r)
		num := NumericalDeriv(func(x float64) float64 { v, _ := lj.Energy(x); return v }, r, 1e-7)
		if math.Abs(dv-num) > 1e-4*(1+math.Abs(dv)) {
			t.Errorf("dV(%g) = %g, numeric %g", r, dv, num)
		}
	}
}

func TestPairOnlyAdapter(t *testing.T) {
	po := PairOnly{P: DefaultLJ()}
	if po.Name() != "pair:lj/12-6" {
		t.Error("PairOnly name wrong")
	}
	if po.Cutoff() != 2.5 {
		t.Error("PairOnly cutoff wrong")
	}
	if phi, dphi := po.Density(1); phi != 0 || dphi != 0 {
		t.Error("PairOnly density must be 0")
	}
	if f, df := po.Embed(5); f != 0 || df != 0 {
		t.Error("PairOnly embed must be 0")
	}
	v1, d1 := po.Energy(1.2)
	v2, d2 := DefaultLJ().Energy(1.2)
	if v1 != v2 || d1 != d2 {
		t.Error("PairOnly energy must delegate")
	}
}

func TestEnergySymmetryProperty(t *testing.T) {
	e := DefaultFe()
	f := func(r float64) bool {
		r = math.Abs(math.Mod(r, 5))
		if r == 0 || math.IsNaN(r) {
			return true
		}
		v1, d1 := e.Energy(r)
		v2, d2 := e.Energy(r)
		return v1 == v2 && d1 == d2 // pure function, no state
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAlloyValidation(t *testing.T) {
	fe, cr := FeCrParams()
	bad := fe
	bad.Re = 0
	if _, err := NewBinaryAlloy(bad, cr, 3.0, 3.5); err == nil {
		t.Error("bad species A accepted")
	}
	if _, err := NewBinaryAlloy(fe, bad, 3.0, 3.5); err == nil {
		t.Error("bad species B accepted")
	}
	if _, err := NewBinaryAlloy(fe, cr, 4.0, 3.5); err == nil {
		t.Error("bad smoothing window accepted")
	}
	badJ := fe
	badJ.JohnsonEmbed = true
	badJ.Ec = 0
	if _, err := NewBinaryAlloy(badJ, cr, 3.0, 3.5); err == nil {
		t.Error("bad Johnson block accepted")
	}
	badFS := fe
	badFS.JohnsonEmbed = false
	badFS.A = 0
	if _, err := NewBinaryAlloy(badFS, cr, 3.0, 3.5); err == nil {
		t.Error("bad FS block accepted")
	}
}

func TestAlloyPairSymmetry(t *testing.T) {
	al := DefaultFeCr()
	for r := 1.5; r < al.Cutoff(); r += 0.1 {
		vab, dab := al.PairEnergy(0, 1, r)
		vba, dba := al.PairEnergy(1, 0, r)
		if vab != vba || dab != dba {
			t.Fatalf("cross pair not symmetric at r=%g", r)
		}
	}
	if al.Species() != 2 || al.Name() != "eam/alloy:Fe-Cr" {
		t.Errorf("identity: %d species, %q", al.Species(), al.Name())
	}
}

func TestAlloyMixingRule(t *testing.T) {
	fe, cr := FeCrParams()
	al, err := NewBinaryAlloy(fe, cr, 3.0, 3.5)
	if err != nil {
		t.Fatal(err)
	}
	// The AB well depth is the geometric mean, located at the mean Re
	// (checked before smoothing: use r = Re_AB < SmoothOn).
	reAB := (fe.Re + cr.Re) / 2
	v, dv := al.PairEnergy(0, 1, reAB)
	wantD := -math.Sqrt(fe.D * cr.D)
	if math.Abs(v-wantD) > 1e-12 {
		t.Errorf("V_AB(Re_AB) = %g, want %g", v, wantD)
	}
	if math.Abs(dv) > 1e-10 {
		t.Errorf("V'_AB(Re_AB) = %g", dv)
	}
}

func TestAlloyDerivatives(t *testing.T) {
	al := DefaultFeCr()
	for _, s := range []int{0, 1} {
		for r := 1.6; r < al.Cutoff(); r += 0.13 {
			_, dv := al.PairEnergy(s, 1-s, r)
			num := NumericalDeriv(func(x float64) float64 { v, _ := al.PairEnergy(s, 1-s, x); return v }, r, 1e-6)
			if math.Abs(dv-num) > 1e-5*(1+math.Abs(dv)) {
				t.Errorf("dV[%d] at %g: %g vs %g", s, r, dv, num)
			}
			_, dp := al.DensityOf(s, r)
			nump := NumericalDeriv(func(x float64) float64 { p, _ := al.DensityOf(s, x); return p }, r, 1e-6)
			if math.Abs(dp-nump) > 1e-5*(1+math.Abs(dp)) {
				t.Errorf("dφ[%d] at %g: %g vs %g", s, r, dp, nump)
			}
		}
		for rho := 0.5; rho < 20; rho += 1.1 {
			_, df := al.EmbedOf(s, rho)
			numf := NumericalDeriv(func(x float64) float64 { f, _ := al.EmbedOf(s, x); return f }, rho, 1e-6)
			if math.Abs(df-numf) > 1e-5*(1+math.Abs(df)) {
				t.Errorf("dF[%d] at %g: %g vs %g", s, rho, df, numf)
			}
		}
	}
	if f, df := al.EmbedOf(0, 0); f != 0 || df != 0 {
		t.Error("F(0) guard failed")
	}
	if v, dv := al.PairEnergy(0, 0, al.Cutoff()+1); v != 0 || dv != 0 {
		t.Error("pair beyond cutoff")
	}
	if p, dp := al.DensityOf(0, 0); p != 0 || dp != 0 {
		t.Error("density at r=0 guard failed")
	}
}

// TestEAMsBuildOnRadialForms pins what the force engine's analytic
// kernels rely on: FeEAM's and BinaryAlloy's interface-style methods are
// their Morse and ExpDensity forms through their smoother, bit for bit,
// and zero outside (0, cut).
func TestEAMsBuildOnRadialForms(t *testing.T) {
	fe, al := DefaultFe(), DefaultFeCr()
	smoothed := func(sm CutoffSmoother, r float64, eval func(float64) (float64, float64)) (float64, float64) {
		f, df := eval(r)
		return sm.Apply(r, f, df)
	}
	same := func(what string, r, a, da, b, db float64) {
		if math.Float64bits(a) != math.Float64bits(b) || math.Float64bits(da) != math.Float64bits(db) {
			t.Errorf("%s(%g) = (%v, %v), radial form gives (%v, %v)", what, r, a, da, b, db)
		}
	}
	for r := 1.9; r < fe.Cutoff(); r += 0.07 {
		v, dv := fe.Energy(r)
		wv, wdv := smoothed(fe.Smoother(), r, fe.Morse().Eval)
		same("FeEAM.Energy", r, v, dv, wv, wdv)
		p, dp := fe.Density(r)
		wp, wdp := smoothed(fe.Smoother(), r, fe.ExpDensity().Eval)
		same("FeEAM.Density", r, p, dp, wp, wdp)
		for si := 0; si < 2; si++ {
			p, dp := al.DensityOf(si, r)
			wp, wdp := smoothed(al.Smoother(), r, al.ExpDensity(si).Eval)
			same("BinaryAlloy.DensityOf", r, p, dp, wp, wdp)
			for sj := 0; sj < 2; sj++ {
				v, dv := al.PairEnergy(si, sj, r)
				wv, wdv := smoothed(al.Smoother(), r, al.Morse(si, sj).Eval)
				same("BinaryAlloy.PairEnergy", r, v, dv, wv, wdv)
			}
		}
	}
	for _, r := range []float64{0, -1, fe.Cutoff(), fe.Cutoff() + 1} {
		if v, dv := fe.Energy(r); v != 0 || dv != 0 {
			t.Errorf("FeEAM.Energy(%g) = (%v, %v), want 0", r, v, dv)
		}
		if p, dp := fe.Density(r); p != 0 || dp != 0 {
			t.Errorf("FeEAM.Density(%g) = (%v, %v), want 0", r, p, dp)
		}
	}
}
