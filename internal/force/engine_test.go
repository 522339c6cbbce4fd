package force

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"sdcmd/internal/box"
	"sdcmd/internal/core"
	"sdcmd/internal/lattice"
	"sdcmd/internal/neighbor"
	"sdcmd/internal/potential"
	"sdcmd/internal/reorder"
	"sdcmd/internal/strategy"
	"sdcmd/internal/vec"
)

// sys bundles a small jittered bcc iron crystal with its list and
// decomposition for engine tests.
type sys struct {
	pot  potential.EAM
	bx   box.Box
	pos  []vec.Vec3
	list *neighbor.List
	dec  *core.Decomposition
}

func newSys(t *testing.T, cells int, jitter float64) *sys {
	t.Helper()
	cfg := lattice.MustBuild(lattice.BCC, cells, cells, cells, 2.8665)
	if jitter > 0 {
		cfg.Jitter(jitter, 7)
	}
	pot := potential.DefaultFe()
	list, err := neighbor.Builder{Cutoff: pot.Cutoff(), Skin: 0.5, Half: true}.Build(cfg.Box, cfg.Pos)
	if err != nil {
		t.Fatal(err)
	}
	// Small crystals cannot satisfy the 2·reach subdomain constraint;
	// leave dec nil there (only serial-path tests use such systems).
	dec, err := core.Decompose(cfg.Box, cfg.Pos, core.Dim2, pot.Cutoff()+0.5)
	if err != nil && !errors.Is(err, core.ErrTooFewSubdomains) {
		t.Fatal(err)
	}
	return &sys{pot: pot, bx: cfg.Box, pos: cfg.Pos, list: list, dec: dec}
}

func (s *sys) serial(t *testing.T) strategy.Reducer {
	t.Helper()
	r, err := strategy.New(strategy.Config{Kind: strategy.Serial, List: s.list})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestNewEngineValidation(t *testing.T) {
	bx := box.MustNew(vec.Zero, vec.Splat(10))
	if _, err := NewEngine(nil, bx); err == nil {
		t.Error("nil potential accepted")
	}
	if _, err := NewEngine(potential.DefaultFe(), bx); err != nil {
		t.Errorf("valid engine rejected: %v", err)
	}
}

func TestComputeMatchesReference(t *testing.T) {
	s := newSys(t, 6, 0.12)
	eng, err := NewEngine(s.pot, s.bx)
	if err != nil {
		t.Fatal(err)
	}
	red := s.serial(t)
	f := make([]vec.Vec3, len(s.pos))
	res, err := eng.Compute(red, s.pos, f)
	if err != nil {
		t.Fatal(err)
	}
	wantF, _, wantPair, wantEmbed := Reference(s.pot, s.bx, s.pos)
	for i := range f {
		if !f[i].ApproxEqual(wantF[i], 1e-9*(1+wantF[i].Norm())) {
			t.Fatalf("force[%d] = %v, reference %v", i, f[i], wantF[i])
		}
	}
	if math.Abs(res.EmbedEnergy-wantEmbed) > 1e-8*(1+math.Abs(wantEmbed)) {
		t.Errorf("embed energy %g, reference %g", res.EmbedEnergy, wantEmbed)
	}
	total, pair, embed, err := eng.PotentialEnergy(red, s.pos)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pair-wantPair) > 1e-8*(1+math.Abs(wantPair)) {
		t.Errorf("pair energy %g, reference %g", pair, wantPair)
	}
	if math.Abs(embed-wantEmbed) > 1e-8*(1+math.Abs(wantEmbed)) {
		t.Errorf("embed energy %g, reference %g", embed, wantEmbed)
	}
	if math.Abs(total-(wantPair+wantEmbed)) > 1e-8*(1+math.Abs(total)) {
		t.Errorf("total %g, reference %g", total, wantPair+wantEmbed)
	}
}

func TestComputeRejectsBadForceArray(t *testing.T) {
	s := newSys(t, 6, 0)
	eng, _ := NewEngine(s.pot, s.bx)
	red := s.serial(t)
	if _, err := eng.Compute(red, s.pos, make([]vec.Vec3, 3)); err == nil {
		t.Error("mismatched force array accepted")
	}
}

// TestComputeRejectsShortList hands Compute a list of fewer atoms than
// positions. The pack runs over the list's atoms, so it would leave the
// other atoms' forces unwritten; it must fail instead, on one worker
// and on a 2-worker pool.
func TestComputeRejectsShortList(t *testing.T) {
	s := newSys(t, 6, 0.05)
	eng, _ := NewEngine(s.pot, s.bx)
	list, err := neighbor.Builder{Cutoff: s.pot.Cutoff(), Skin: 0.5, Half: true}.Build(s.bx, s.pos[:len(s.pos)-3])
	if err != nil {
		t.Fatal(err)
	}
	pool := strategy.MustNewPool(2)
	defer pool.Close()
	for _, k := range []strategy.Kind{strategy.Serial, strategy.SAP} {
		red, err := strategy.New(strategy.Config{Kind: k, List: list, Pool: pool})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Compute(red, s.pos, make([]vec.Vec3, len(s.pos))); err == nil {
			t.Errorf("%v: a list of %d atoms accepted for %d positions", k, list.N(), len(s.pos))
		}
	}
}

func TestForceMatchesNumericalGradient(t *testing.T) {
	// eq. (2) consistency: analytic force = −∂E/∂r numerically.
	cfg := lattice.MustBuild(lattice.BCC, 3, 3, 3, 2.8665)
	cfg.Jitter(0.15, 3)
	pot := potential.DefaultFe()
	f, _, _, _ := Reference(pot, cfg.Box, cfg.Pos)
	for _, i := range []int{0, 7, 25, 53} {
		num := NumericalForce(pot, cfg.Box, cfg.Pos, i, 1e-6)
		if !f[i].ApproxEqual(num, 1e-4*(1+f[i].Norm())) {
			t.Errorf("atom %d: analytic %v vs numeric %v", i, f[i], num)
		}
	}
}

func TestNewtonsThirdLawTotalForceZero(t *testing.T) {
	s := newSys(t, 6, 0.1)
	eng, _ := NewEngine(s.pot, s.bx)
	red := s.serial(t)
	f := make([]vec.Vec3, len(s.pos))
	if _, err := eng.Compute(red, s.pos, f); err != nil {
		t.Fatal(err)
	}
	net := vec.Sum(f)
	if net.Norm() > 1e-9*float64(len(f)) {
		t.Errorf("ΣF = %v, want ~0", net)
	}
}

func TestPerfectLatticeHasZeroForces(t *testing.T) {
	// Symmetry: every atom in a perfect periodic bcc crystal feels no
	// net force.
	s := newSys(t, 4, 0)
	eng, _ := NewEngine(s.pot, s.bx)
	red := s.serial(t)
	f := make([]vec.Vec3, len(s.pos))
	if _, err := eng.Compute(red, s.pos, f); err != nil {
		t.Fatal(err)
	}
	if worst := vec.MaxNorm(f); worst > 1e-10 {
		t.Errorf("max |F| on perfect lattice = %g, want ~0", worst)
	}
}

func TestAllStrategiesAgreeOnPhysics(t *testing.T) {
	s := newSys(t, 6, 0.1)
	eng, _ := NewEngine(s.pot, s.bx)
	ref := s.serial(t)
	want := make([]vec.Vec3, len(s.pos))
	wantRes, err := eng.Compute(ref, s.pos, want)
	if err != nil {
		t.Fatal(err)
	}
	pool := strategy.MustNewPool(4)
	defer pool.Close()
	for _, k := range []strategy.Kind{strategy.SDC, strategy.CS, strategy.AtomicCS, strategy.SAP, strategy.RC} {
		red, err := strategy.New(strategy.Config{Kind: k, List: s.list, Pool: pool, Decomp: s.dec})
		if err != nil {
			t.Fatal(err)
		}
		got := make([]vec.Vec3, len(s.pos))
		res, err := eng.Compute(red, s.pos, got)
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if !got[i].ApproxEqual(want[i], 1e-9*(1+want[i].Norm())) {
				t.Fatalf("%v: force[%d] = %v, want %v", k, i, got[i], want[i])
			}
		}
		if math.Abs(res.EmbedEnergy-wantRes.EmbedEnergy) > 1e-8*(1+math.Abs(wantRes.EmbedEnergy)) {
			t.Errorf("%v: embed %g, want %g", k, res.EmbedEnergy, wantRes.EmbedEnergy)
		}
	}
}

func TestRhoDiagnostics(t *testing.T) {
	s := newSys(t, 4, 0)
	eng, _ := NewEngine(s.pot, s.bx)
	red := s.serial(t)
	f := make([]vec.Vec3, len(s.pos))
	res, err := eng.Compute(red, s.pos, f)
	if err != nil {
		t.Fatal(err)
	}
	// Perfect lattice: all densities identical and positive.
	if res.MinRho <= 0 {
		t.Errorf("MinRho = %g, want > 0", res.MinRho)
	}
	if math.Abs(res.MaxRho-res.MinRho) > 1e-9 {
		t.Errorf("lattice ρ spread [%g, %g], want uniform", res.MinRho, res.MaxRho)
	}
	if len(eng.Rho()) != len(s.pos) {
		t.Error("Rho() length wrong")
	}
}

func TestPairOnlyPotentialThroughEngine(t *testing.T) {
	// The pure pair path (paper's one-phase comparison point): embed
	// energy must vanish and forces must match the LJ-only reference.
	cfg := lattice.MustBuild(lattice.FCC, 4, 4, 4, 1.5) // reduced units
	cfg.Jitter(0.05, 11)
	pot := potential.PairOnly{P: potential.DefaultLJ()}
	list, err := neighbor.Builder{Cutoff: pot.Cutoff(), Skin: 0.3, Half: true}.Build(cfg.Box, cfg.Pos)
	if err != nil {
		t.Fatal(err)
	}
	red, err := strategy.New(strategy.Config{Kind: strategy.Serial, List: list})
	if err != nil {
		t.Fatal(err)
	}
	eng, _ := NewEngine(pot, cfg.Box)
	f := make([]vec.Vec3, cfg.N())
	res, err := eng.Compute(red, cfg.Pos, f)
	if err != nil {
		t.Fatal(err)
	}
	if res.EmbedEnergy != 0 {
		t.Errorf("pair-only embed energy = %g", res.EmbedEnergy)
	}
	wantF, _, _, _ := Reference(pot, cfg.Box, cfg.Pos)
	for i := range f {
		if !f[i].ApproxEqual(wantF[i], 1e-9*(1+wantF[i].Norm())) {
			t.Fatalf("LJ force[%d] = %v, want %v", i, f[i], wantF[i])
		}
	}
}

func TestEmptySystem(t *testing.T) {
	bx := box.MustNew(vec.Zero, vec.Splat(10))
	list, err := neighbor.Builder{Cutoff: 3.5, Half: true}.Build(bx, nil)
	if err != nil {
		t.Fatal(err)
	}
	red, err := strategy.New(strategy.Config{Kind: strategy.Serial, List: list})
	if err != nil {
		t.Fatal(err)
	}
	eng, _ := NewEngine(potential.DefaultFe(), bx)
	res, err := eng.Compute(red, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.EmbedEnergy != 0 || res.MinRho != 0 || res.MaxRho != 0 {
		t.Errorf("empty system result = %+v", res)
	}
}

// TestTranslationInvariance shifts every atom rigidly, with wrap, and
// requires the forces and the energy to stay unchanged: the engine
// depends only on relative geometry. The box has Lo ≠ 0, and each of
// several random shifts moves rows between the image-free and the
// imaged distance loops (see Engine.dists), under Serial and 2-worker
// SDC, for Fe and Fe0.9Cr0.1. Each configuration gets its own list and
// decomposition, since a shift rebins atoms into other subdomains.
func TestTranslationInvariance(t *testing.T) {
	cfg := lattice.MustBuild(lattice.BCC, 6, 6, 6, 2.8665)
	cfg.Jitter(0.1, 7)
	off := vec.New(-3.1, 5.7, -11.3)
	bx := box.MustNew(cfg.Box.Lo.Add(off), cfg.Box.Hi.Add(off))
	wrap := func(shift vec.Vec3) []vec.Vec3 {
		pos := make([]vec.Vec3, cfg.N())
		for i, p := range cfg.Pos {
			pos[i] = bx.Wrap(p.Add(off).Add(shift))
		}
		return pos
	}
	rng := rand.New(rand.NewSource(5))
	species := make([]int32, cfg.N())
	for i := range species {
		if rng.Float64() < 0.1 {
			species[i] = 1 // Cr
		}
	}
	l := bx.Lengths()
	var shifts []vec.Vec3
	for range 4 {
		shifts = append(shifts, vec.New((2*rng.Float64()-1)*l[0], (2*rng.Float64()-1)*l[1], (2*rng.Float64()-1)*l[2]))
	}
	fe, err := NewEngine(potential.DefaultFe(), bx)
	if err != nil {
		t.Fatal(err)
	}
	alloy, err := NewAlloyEngine(potential.DefaultFeCr(), bx, species)
	if err != nil {
		t.Fatal(err)
	}
	const skin = 0.5
	pool := strategy.MustNewPool(2)
	defer pool.Close()
	for _, c := range []struct {
		name string
		eng  *Engine
	}{{"fe", fe}, {"alloy", alloy}} {
		eng := c.eng
		for _, kind := range []strategy.Kind{strategy.Serial, strategy.SDC} {
			compute := func(pos []vec.Vec3) ([]vec.Vec3, float64) {
				t.Helper()
				list, err := neighbor.Builder{Cutoff: eng.Cutoff(), Skin: skin, Half: true}.Build(bx, pos)
				if err != nil {
					t.Fatal(err)
				}
				dec, err := core.Decompose(bx, pos, core.Dim2, eng.Cutoff()+skin)
				if err != nil {
					t.Fatal(err)
				}
				red, err := strategy.New(strategy.Config{Kind: kind, List: list, Pool: pool, Decomp: dec})
				if err != nil {
					t.Fatal(err)
				}
				f := make([]vec.Vec3, len(pos))
				if _, err := eng.Compute(red, pos, f); err != nil {
					t.Fatal(err)
				}
				e, _, _, err := eng.PotentialEnergy(red, pos)
				if err != nil {
					t.Fatal(err)
				}
				return f, e
			}
			f0, e0 := compute(wrap(vec.Zero))
			for _, shift := range shifts {
				f1, e1 := compute(wrap(shift))
				if math.Abs(e1-e0) > 1e-8*(1+math.Abs(e0)) {
					t.Errorf("%s/%v, shift %v: energy not translation invariant: %g vs %g", c.name, kind, shift, e0, e1)
				}
				for i := range f0 {
					if !f0[i].ApproxEqual(f1[i], 1e-8*(1+f0[i].Norm())) {
						t.Fatalf("%s/%v, shift %v: force[%d] changed under translation: %v vs %v", c.name, kind, shift, i, f0[i], f1[i])
					}
				}
			}
		}
	}
}

func TestPermutationEquivariance(t *testing.T) {
	// Renumbering atoms (with a remapped list) permutes forces exactly.
	s := newSys(t, 4, 0.1)
	eng, _ := NewEngine(s.pot, s.bx)
	red := s.serial(t)
	f0 := make([]vec.Vec3, len(s.pos))
	if _, err := eng.Compute(red, s.pos, f0); err != nil {
		t.Fatal(err)
	}
	perm := reorder.Scramble(len(s.pos), 77)
	newPos := perm.ApplyVec3(s.pos)
	newList := perm.RemapList(s.list)
	newRed, err := strategy.New(strategy.Config{Kind: strategy.Serial, List: newList})
	if err != nil {
		t.Fatal(err)
	}
	f1 := make([]vec.Vec3, len(newPos))
	if _, err := eng.Compute(newRed, newPos, f1); err != nil {
		t.Fatal(err)
	}
	for newIdx, old := range perm.NewToOld {
		if !f1[newIdx].ApproxEqual(f0[old], 1e-9*(1+f0[old].Norm())) {
			t.Fatalf("force not equivariant at new=%d old=%d", newIdx, old)
		}
	}
}
