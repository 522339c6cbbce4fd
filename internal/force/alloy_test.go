package force

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"sdcmd/internal/core"
	"sdcmd/internal/lattice"
	"sdcmd/internal/neighbor"
	"sdcmd/internal/potential"
	"sdcmd/internal/strategy"
	"sdcmd/internal/vec"
)

// alloySys builds a jittered bcc crystal with a random 50/50 species
// assignment (a concentrated random alloy).
func alloySys(t *testing.T, cells int) (*lattice.Config, []int32, *neighbor.List, *core.Decomposition) {
	t.Helper()
	cfg := lattice.MustBuild(lattice.BCC, cells, cells, cells, 2.8665)
	cfg.Jitter(0.08, 17)
	rng := rand.New(rand.NewSource(23))
	species := make([]int32, cfg.N())
	for i := range species {
		species[i] = int32(rng.Intn(2))
	}
	al := potential.DefaultFeCr()
	list, err := neighbor.Builder{Cutoff: al.Cutoff(), Skin: 0.5, Half: true}.Build(cfg.Box, cfg.Pos)
	if err != nil {
		t.Fatal(err)
	}
	// Small replicas cannot satisfy the SDC 2·reach constraint; only
	// the strategy-agreement test (cells >= 6) uses the decomposition.
	dec, err := core.Decompose(cfg.Box, cfg.Pos, core.Dim2, al.Cutoff()+0.5)
	if err != nil && !errors.Is(err, core.ErrTooFewSubdomains) {
		t.Fatal(err)
	}
	return cfg, species, list, dec
}

func TestNewAlloyEngineValidation(t *testing.T) {
	cfg := lattice.MustBuild(lattice.BCC, 3, 3, 3, 2.8665)
	al := potential.DefaultFeCr()
	if _, err := NewAlloyEngine(nil, cfg.Box, nil); err == nil {
		t.Error("nil potential accepted")
	}
	bad := make([]int32, cfg.N())
	bad[0] = 7
	if _, err := NewAlloyEngine(al, cfg.Box, bad); err == nil {
		t.Error("out-of-range species accepted")
	}
	if _, err := NewAlloyEngine(al, cfg.Box, make([]int32, cfg.N())); err != nil {
		t.Errorf("valid engine rejected: %v", err)
	}
}

func TestAlloyEngineMatchesReference(t *testing.T) {
	cfg, species, list, _ := alloySys(t, 5)
	al := potential.DefaultFeCr()
	eng, err := NewAlloyEngine(al, cfg.Box, species)
	if err != nil {
		t.Fatal(err)
	}
	red, err := strategy.New(strategy.Config{Kind: strategy.Serial, List: list})
	if err != nil {
		t.Fatal(err)
	}
	f := make([]vec.Vec3, cfg.N())
	if _, err := eng.Compute(red, cfg.Pos, f); err != nil {
		t.Fatal(err)
	}
	wantF, wantE := AlloyReference(al, cfg.Box, species, cfg.Pos)
	for i := range f {
		if !f[i].ApproxEqual(wantF[i], 1e-9*(1+wantF[i].Norm())) {
			t.Fatalf("alloy force[%d] = %v, want %v", i, f[i], wantF[i])
		}
	}
	total, _, _, err := eng.PotentialEnergy(red, cfg.Pos)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(total-wantE) > 1e-8*(1+math.Abs(wantE)) {
		t.Errorf("alloy energy %g, want %g", total, wantE)
	}
}

func TestAlloyStrategiesAgree(t *testing.T) {
	cfg, species, list, dec := alloySys(t, 6)
	al := potential.DefaultFeCr()
	eng, err := NewAlloyEngine(al, cfg.Box, species)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := strategy.New(strategy.Config{Kind: strategy.Serial, List: list})
	if err != nil {
		t.Fatal(err)
	}
	want := make([]vec.Vec3, cfg.N())
	if _, err := eng.Compute(serial, cfg.Pos, want); err != nil {
		t.Fatal(err)
	}
	pool := strategy.MustNewPool(3)
	defer pool.Close()
	for _, k := range []strategy.Kind{strategy.SDC, strategy.CS, strategy.SAP, strategy.RC} {
		red, err := strategy.New(strategy.Config{Kind: k, List: list, Pool: pool, Decomp: dec})
		if err != nil {
			t.Fatal(err)
		}
		got := make([]vec.Vec3, cfg.N())
		if _, err := eng.Compute(red, cfg.Pos, got); err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if !got[i].ApproxEqual(want[i], 1e-9*(1+want[i].Norm())) {
				t.Fatalf("%v: alloy force[%d] diverged", k, i)
			}
		}
	}
}

func TestAlloyNewtonsThirdLaw(t *testing.T) {
	cfg, species, list, _ := alloySys(t, 5)
	al := potential.DefaultFeCr()
	eng, _ := NewAlloyEngine(al, cfg.Box, species)
	red, err := strategy.New(strategy.Config{Kind: strategy.Serial, List: list})
	if err != nil {
		t.Fatal(err)
	}
	f := make([]vec.Vec3, cfg.N())
	if _, err := eng.Compute(red, cfg.Pos, f); err != nil {
		t.Fatal(err)
	}
	if net := vec.Sum(f); net.Norm() > 1e-9*float64(cfg.N()) {
		t.Errorf("alloy ΣF = %v", net)
	}
}

func TestAlloyForceMatchesNumericalGradient(t *testing.T) {
	cfg := lattice.MustBuild(lattice.BCC, 3, 3, 3, 2.8665)
	cfg.Jitter(0.12, 3)
	species := make([]int32, cfg.N())
	for i := range species {
		species[i] = int32(i % 2) // ordered B2-like occupation
	}
	al := potential.DefaultFeCr()
	f, _ := AlloyReference(al, cfg.Box, species, cfg.Pos)
	probe := make([]vec.Vec3, cfg.N())
	h := 1e-6
	for _, i := range []int{0, 5, 31} {
		var num vec.Vec3
		for a := 0; a < 3; a++ {
			copy(probe, cfg.Pos)
			probe[i][a] += h
			_, ep := AlloyReference(al, cfg.Box, species, probe)
			copy(probe, cfg.Pos)
			probe[i][a] -= h
			_, em := AlloyReference(al, cfg.Box, species, probe)
			num[a] = -(ep - em) / (2 * h)
		}
		if !f[i].ApproxEqual(num, 1e-4*(1+f[i].Norm())) {
			t.Errorf("alloy atom %d: analytic %v vs numeric %v", i, f[i], num)
		}
	}
}

func TestSingleSpeciesAlloyMatchesPlainEngine(t *testing.T) {
	// A binary alloy whose two species both carry the Fe parameters
	// must reproduce the plain Fe engine.
	cfg := lattice.MustBuild(lattice.BCC, 5, 5, 5, 2.8665)
	cfg.Jitter(0.1, 7)
	pot := potential.DefaultFe()
	list, err := neighbor.Builder{Cutoff: pot.Cutoff(), Skin: 0.5, Half: true}.Build(cfg.Box, cfg.Pos)
	if err != nil {
		t.Fatal(err)
	}
	red, err := strategy.New(strategy.Config{Kind: strategy.Serial, List: list})
	if err != nil {
		t.Fatal(err)
	}
	plain, _ := NewEngine(pot, cfg.Box)
	fPlain := make([]vec.Vec3, cfg.N())
	resPlain, err := plain.Compute(red, cfg.Pos, fPlain)
	if err != nil {
		t.Fatal(err)
	}
	p := pot.Params()
	fe := potential.SpeciesParams{Element: "Fe", Re: p.Re, D: p.D, Alpha: p.Alpha, Fe0: p.Fe0, Beta: p.Beta, A: p.A}
	feFe, err := potential.NewBinaryAlloy(fe, fe, p.SmoothOn, p.Cut)
	if err != nil {
		t.Fatal(err)
	}
	alloy, err := NewAlloyEngine(feFe, cfg.Box, make([]int32, cfg.N()))
	if err != nil {
		t.Fatal(err)
	}
	fAlloy := make([]vec.Vec3, cfg.N())
	resAlloy, err := alloy.Compute(red, cfg.Pos, fAlloy)
	if err != nil {
		t.Fatal(err)
	}
	for i := range fPlain {
		if !fPlain[i].ApproxEqual(fAlloy[i], 1e-12*(1+fPlain[i].Norm())) {
			t.Fatalf("single-species alloy force[%d] = %v, plain %v", i, fAlloy[i], fPlain[i])
		}
	}
	if math.Abs(resPlain.EmbedEnergy-resAlloy.EmbedEnergy) > 1e-10*(1+math.Abs(resPlain.EmbedEnergy)) {
		t.Errorf("embed energies differ: %g vs %g", resPlain.EmbedEnergy, resAlloy.EmbedEnergy)
	}
}

func TestAlloyComputeSizeMismatch(t *testing.T) {
	cfg, species, list, _ := alloySys(t, 5)
	al := potential.DefaultFeCr()
	eng, _ := NewAlloyEngine(al, cfg.Box, species)
	red, err := strategy.New(strategy.Config{Kind: strategy.Serial, List: list})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Compute(red, cfg.Pos, make([]vec.Vec3, 3)); err == nil {
		t.Error("mismatched force array accepted")
	}
	short := cfg.Pos[:3]
	if _, err := eng.Compute(red, short, make([]vec.Vec3, 3)); err == nil {
		t.Error("Compute accepted fewer positions than species")
	}
	if _, _, _, err := eng.PotentialEnergy(red, short); err == nil {
		t.Error("PotentialEnergy accepted fewer positions than species")
	}
}
