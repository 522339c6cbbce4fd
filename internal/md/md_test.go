package md

import (
	"math"
	"slices"
	"strings"
	"testing"

	"sdcmd/internal/box"
	"sdcmd/internal/core"
	"sdcmd/internal/force"
	"sdcmd/internal/lattice"
	"sdcmd/internal/neighbor"
	"sdcmd/internal/potential"
	"sdcmd/internal/strategy"
	"sdcmd/internal/vec"
)

func feSystem(t *testing.T, cells int, temperature float64) *System {
	t.Helper()
	cfg := lattice.MustBuild(lattice.BCC, cells, cells, cells, 2.8665)
	sys := FromLattice(cfg)
	if err := sys.InitVelocities(temperature, 11); err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestNewSystemValidation(t *testing.T) {
	bx := box.MustNew(vec.Zero, vec.Splat(10))
	if _, err := NewSystem(bx, -1, FeMass); err == nil {
		t.Error("negative atoms accepted")
	}
	if _, err := NewSystem(bx, 5, 0); err == nil {
		t.Error("zero mass accepted")
	}
	s, err := NewSystem(bx, 5, FeMass)
	if err != nil || s.N() != 5 {
		t.Errorf("valid system rejected: %v", err)
	}
}

func TestInitVelocities(t *testing.T) {
	sys := feSystem(t, 5, 300)
	if got := sys.Temperature(); math.Abs(got-300) > 1e-6 {
		t.Errorf("T after init = %g, want 300", got)
	}
	if p := sys.Momentum(); p.Norm() > 1e-9 {
		t.Errorf("net momentum %v, want 0", p)
	}
	// Determinism.
	a := feSystem(t, 3, 100)
	b := feSystem(t, 3, 100)
	for i := range a.Vel {
		if a.Vel[i] != b.Vel[i] {
			t.Fatal("velocity init not deterministic")
		}
	}
	if err := a.InitVelocities(-5, 1); err == nil {
		t.Error("negative T accepted")
	}
	if err := a.InitVelocities(0, 1); err != nil {
		t.Error("T=0 rejected")
	}
	if ke := a.KineticEnergy(); ke != 0 {
		t.Errorf("T=0 init leaves KE=%g", ke)
	}
}

func TestTemperatureOfEmptySystem(t *testing.T) {
	bx := box.MustNew(vec.Zero, vec.Splat(10))
	s, _ := NewSystem(bx, 0, FeMass)
	if s.Temperature() != 0 {
		t.Error("empty system temperature must be 0")
	}
	if err := s.InitVelocities(100, 1); err != nil {
		t.Error(err)
	}
	s.ZeroMomentum() // must not panic
}

func TestSystemClone(t *testing.T) {
	sys := feSystem(t, 3, 50)
	c := sys.Clone()
	c.Pos[0] = vec.New(9, 9, 9)
	c.Vel[0] = vec.New(1, 1, 1)
	if sys.Pos[0] == c.Pos[0] || sys.Vel[0] == c.Vel[0] {
		t.Error("Clone must deep-copy")
	}
}

func TestNewSimulatorValidation(t *testing.T) {
	sys := feSystem(t, 4, 100)
	good := DefaultConfig()
	if _, err := NewSimulator(nil, good); err == nil {
		t.Error("nil system accepted")
	}
	for i, mut := range []func(*Config){
		func(c *Config) { c.Pot = nil },
		func(c *Config) { c.Dt = 0 },
		func(c *Config) { c.Skin = -1 },
		func(c *Config) { c.Threads = 0 },
		func(c *Config) { c.Thermostat = &Berendsen{Target: -1, Tau: 1} },
		func(c *Config) { c.Thermostat = &Berendsen{Target: 100, Tau: 0} },
	} {
		cfg := DefaultConfig()
		mut(&cfg)
		if _, err := NewSimulator(sys, cfg); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
	sim, err := NewSimulator(sys, good)
	if err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	sim.Close()
	if err := sim.Step(1); err == nil {
		t.Error("Step after Close accepted")
	}
}

func TestEnergyConservationNVE(t *testing.T) {
	// The cornerstone physics test: with the smooth cutoff and a sane
	// timestep, total energy drifts by a tiny fraction over many steps.
	sys := feSystem(t, 4, 150)
	cfg := DefaultConfig()
	cfg.Dt = 1e-3 // 1 fs
	sim, err := NewSimulator(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	e0 := sim.TotalEnergy()
	if err := sim.Step(200); err != nil {
		t.Fatal(err)
	}
	e1 := sim.TotalEnergy()
	drift := math.Abs(e1-e0) / math.Abs(e0)
	if drift > 1e-4 {
		t.Errorf("NVE energy drift %g over 200 steps (E: %g -> %g)", drift, e0, e1)
	}
	if sim.StepCount() != 200 {
		t.Errorf("StepCount = %d", sim.StepCount())
	}
}

func TestMomentumConservation(t *testing.T) {
	sys := feSystem(t, 4, 200)
	cfg := DefaultConfig()
	sim, err := NewSimulator(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	if err := sim.Step(100); err != nil {
		t.Fatal(err)
	}
	if p := sys.Momentum(); p.Norm() > 1e-8 {
		t.Errorf("momentum after 100 steps: %v", p)
	}
}

func TestStrategiesProduceIdenticalTrajectories(t *testing.T) {
	// Parallel runs must track the serial trajectory: same positions
	// after many steps (floating-point reduction order differs, so use
	// a tolerance).
	mkSim := func(k strategy.Kind, threads int) (*Simulator, *System) {
		sys := feSystem(t, 6, 120)
		cfg := DefaultConfig()
		cfg.Strategy = k
		cfg.Threads = threads
		cfg.Dim = core.Dim2
		sim, err := NewSimulator(sys, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return sim, sys
	}
	ref, refSys := mkSim(strategy.Serial, 1)
	defer ref.Close()
	if err := ref.Step(20); err != nil {
		t.Fatal(err)
	}
	for _, k := range []strategy.Kind{strategy.SDC, strategy.RC, strategy.SAP} {
		sim, sys := mkSim(k, 3)
		if err := sim.Step(20); err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		for i := range sys.Pos {
			d := sys.Box.MinImage(sys.Pos[i], refSys.Pos[i]).Norm()
			if d > 1e-7 {
				t.Fatalf("%v: trajectory diverged at atom %d by %g Å", k, i, d)
			}
		}
		sim.Close()
	}
}

// identityPartition reports whether g's PartIndex is the identity,
// i.e. every cell's atoms are one dense index range.
func identityPartition(g *core.Grid) bool {
	for k, i := range g.PartIndex {
		if int(i) != k {
			return false
		}
	}
	return true
}

// TestBlockReorderPreservesPhysics runs the same system with and
// without the block-reorder pass. The reorder relabels atoms, so the
// runs are compared on relabeling-invariant quantities (energies,
// momentum) and on the position multiset, while the reordered run must
// actually keep its atoms in the dense cell order of its neighbor-cell
// grid.
func TestBlockReorderPreservesPhysics(t *testing.T) {
	run := func(blocked bool) (*Simulator, *System) {
		sys := feSystem(t, 6, 120)
		cfg := DefaultConfig()
		cfg.Strategy = strategy.SDC
		cfg.Threads = 3
		cfg.Dim = core.Dim2
		cfg.BlockReorder = blocked
		sim, err := NewSimulator(sys, cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(sim.Close)
		if err := sim.Step(20); err != nil {
			t.Fatal(err)
		}
		return sim, sys
	}
	ref, refSys := run(false)
	blk, blkSys := run(true)
	if !identityPartition(blk.cells) {
		t.Error("block-reordered cell grid's PartIndex is not the identity")
	}
	if identityPartition(ref.cells) {
		t.Error("scattered baseline cell grid's PartIndex is the identity (test is vacuous)")
	}
	if dE := math.Abs(blk.TotalEnergy() - ref.TotalEnergy()); dE > 1e-7 {
		t.Errorf("total energy differs by %g eV under reorder", dE)
	}
	if p := blkSys.Momentum(); p.Norm() > 1e-8 {
		t.Errorf("momentum not conserved under reorder: %v", p)
	}
	// Position multiset: every reference atom must have a (unique
	// lattice site) counterpart in the reordered run.
	for i := range refSys.Pos {
		best := math.Inf(1)
		for j := range blkSys.Pos {
			if d := refSys.Box.MinImage(refSys.Pos[i], blkSys.Pos[j]).Norm(); d < best {
				best = d
			}
		}
		if best > 1e-7 {
			t.Fatalf("reference atom %d has no counterpart within %g Å", i, best)
		}
	}
}

// TestBlockReorderCarriesMasses: the cell order at the first build
// moves each atom's velocity and per-atom mass with its position.
func TestBlockReorderCarriesMasses(t *testing.T) {
	sys := feSystem(t, 6, 120)
	masses := make([]float64, sys.N())
	type state struct {
		vel  vec.Vec3
		mass float64
	}
	was := map[vec.Vec3]state{}
	for i := range masses {
		masses[i] = FeMass * (1 + float64(i)/float64(sys.N()))
		was[sys.Pos[i]] = state{sys.Vel[i], masses[i]}
	}
	if err := sys.SetMasses(masses); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Strategy, cfg.Threads, cfg.Dim, cfg.BlockReorder = strategy.SDC, 2, core.Dim2, true
	sim, err := NewSimulator(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	moved := 0
	for i, p := range sys.Pos {
		w := was[p]
		if w.vel != sys.Vel[i] || w.mass != sys.MassOf(i) {
			t.Fatalf("atom %d at %v: velocity %v, mass %g; it had %v, %g", i, p, sys.Vel[i], sys.MassOf(i), w.vel, w.mass)
		}
		if w.mass != masses[i] {
			moved++
		}
	}
	if moved == 0 {
		t.Error("the cell order moved no atom (test is vacuous)")
	}
}

func TestBlockReorderValidation(t *testing.T) {
	sys := feSystem(t, 4, 100)
	cfg := DefaultConfig()
	cfg.BlockReorder = true // serial strategy: no decomposition
	if _, err := NewSimulator(sys, cfg); err == nil {
		t.Error("BlockReorder with serial strategy accepted")
	}
	cfg.Strategy = strategy.SAP
	cfg.Threads = 2
	if _, err := NewSimulator(sys, cfg); err == nil {
		t.Error("BlockReorder with SAP strategy accepted")
	}
}

func TestBerendsenThermostatReachesTarget(t *testing.T) {
	sys := feSystem(t, 4, 50)
	cfg := DefaultConfig()
	cfg.Dt = 1e-3
	cfg.Thermostat = &Berendsen{Target: 300, Tau: 0.01}
	sim, err := NewSimulator(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	if err := sim.Step(300); err != nil {
		t.Fatal(err)
	}
	got := sys.Temperature()
	if math.Abs(got-300) > 60 {
		t.Errorf("T after thermostat = %g, want ≈300", got)
	}
}

func TestThermostatFromZeroVelocities(t *testing.T) {
	// Thermostat with zero kinetic energy must not divide by zero; the
	// crystal heats from jitter-induced potential energy converted by
	// the clamp path.
	cfg0 := lattice.MustBuild(lattice.BCC, 3, 3, 3, 2.8665)
	cfg0.Jitter(0.05, 5)
	sys := FromLattice(cfg0)
	cfg := DefaultConfig()
	cfg.Thermostat = &Berendsen{Target: 100, Tau: 0.01}
	sim, err := NewSimulator(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	if err := sim.Step(10); err != nil {
		t.Fatal(err)
	}
}

func TestRebuildTriggersOnMotion(t *testing.T) {
	sys := feSystem(t, 4, 2000) // hot: atoms move fast
	cfg := DefaultConfig()
	cfg.Dt = 2e-3
	cfg.Skin = 0.1 // tiny skin: frequent rebuilds
	sim, err := NewSimulator(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	before := sim.Rebuilds()
	if err := sim.Step(50); err != nil {
		t.Fatal(err)
	}
	if sim.Rebuilds() == before {
		t.Error("hot system with tiny skin never rebuilt the list")
	}
}

func TestZeroSkinRebuildsEveryStep(t *testing.T) {
	sys := feSystem(t, 4, 100)
	cfg := DefaultConfig()
	cfg.Skin = 0
	sim, err := NewSimulator(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	r0 := sim.Rebuilds()
	if err := sim.Step(5); err != nil {
		t.Fatal(err)
	}
	if sim.Rebuilds() != r0+5 {
		t.Errorf("rebuilds = %d, want %d", sim.Rebuilds(), r0+5)
	}
}

func TestApplyStrainChangesBoxAndSurvives(t *testing.T) {
	sys := feSystem(t, 6, 100)
	cfg := DefaultConfig()
	cfg.Strategy = strategy.SDC
	cfg.Threads = 2
	sim, err := NewSimulator(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	vol0 := sys.Box.Volume()
	if err := sim.ApplyStrain(vec.New(0.01, 0, 0)); err != nil {
		t.Fatal(err)
	}
	if sys.Box.Volume() <= vol0 {
		t.Error("tensile strain must grow the box")
	}
	if err := sim.Step(5); err != nil {
		t.Fatalf("step after strain: %v", err)
	}
	// Stretched along x: the crystal pulls back. Potential energy above
	// the relaxed minimum.
	if sim.Decomposition() == nil {
		t.Error("SDC simulator lost its decomposition")
	}
	if sim.List() == nil || sim.Reducer() == nil {
		t.Error("accessors returned nil")
	}
}

// TestStrainRefreshesImageAndList guards the state a strain must
// refresh. After a tensile strain, which lowers the pair count, and
// then a compressive one, which raises it: the Serial simulator's
// forces are bit-identical to a fresh engine's on the strained box, so
// the engine's cached periodic image cannot be the pre-strain one; and
// List(), rebuilt into the arrays of the outgoing list, is slice-equal
// to a fresh Build on both a Serial and a 2-thread SDC simulator.
func TestStrainRefreshesImageAndList(t *testing.T) {
	for _, kind := range []strategy.Kind{strategy.Serial, strategy.SDC} {
		sys := feSystem(t, 7, 300)
		cfg := DefaultConfig()
		cfg.Strategy = kind
		cfg.Threads = 2
		sim, err := NewSimulator(sys, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer sim.Close()
		b := neighbor.Builder{Cutoff: cfg.Pot.Cutoff(), Skin: cfg.Skin, Half: true}
		pairs := sim.List().Pairs()
		for _, eps := range []float64{0.03, -0.05} {
			if err := sim.ApplyStrain(vec.Splat(eps)); err != nil {
				t.Fatal(err)
			}
			want, err := b.Build(sys.Box, sys.Pos)
			if err != nil {
				t.Fatal(err)
			}
			got := sim.List()
			if !slices.Equal(got.Index, want.Index) || !slices.Equal(got.Len, want.Len) || !slices.Equal(got.Neigh, want.Neigh) {
				t.Fatalf("%v, strain %g: List() differs from a fresh Build", kind, eps)
			}
			if grew := got.Pairs() > pairs; grew != (eps < 0) {
				t.Errorf("%v, strain %g: pairs %d -> %d", kind, eps, pairs, got.Pairs())
			}
			pairs = got.Pairs()
			if kind != strategy.Serial {
				continue
			}
			eng, err := force.NewEngine(cfg.Pot, sys.Box)
			if err != nil {
				t.Fatal(err)
			}
			red, err := strategy.New(strategy.Config{Kind: strategy.Serial, List: want})
			if err != nil {
				t.Fatal(err)
			}
			ref := make([]vec.Vec3, sys.N())
			if _, err := eng.Compute(red, sys.Pos, ref); err != nil {
				t.Fatal(err)
			}
			for i := range ref {
				for a := range ref[i] {
					if math.Float64bits(sys.Force[i][a]) != math.Float64bits(ref[i][a]) {
						t.Fatalf("strain %g: F[%d] = %v, fresh engine %v", eps, i, sys.Force[i], ref[i])
					}
				}
			}
		}
	}
}

func TestStrainedCrystalFeelsRestoringStress(t *testing.T) {
	// Micro-deformation sanity: stretching a relaxed crystal raises
	// its potential energy.
	sys0 := feSystem(t, 4, 0)
	cfg := DefaultConfig()
	sim, err := NewSimulator(sys0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	e0 := sim.PotentialEnergy()
	if err := sim.ApplyStrain(vec.Splat(0.03)); err != nil {
		t.Fatal(err)
	}
	e1 := sim.PotentialEnergy()
	if e1 <= e0 {
		t.Errorf("strained PE %g <= relaxed PE %g", e1, e0)
	}
}

func TestUnits(t *testing.T) {
	// Cross-check: kB·300K in eV ≈ 0.02585.
	if math.Abs(KB*300-0.025852) > 1e-5 {
		t.Errorf("kB·300 = %g", KB*300)
	}
	// Fe thermal velocity at 300 K ≈ sqrt(3kT/m) ≈ 3.7 Å/ps.
	v := math.Sqrt(3 * KB * 300 / FeMass)
	if v < 3 || v > 4.5 {
		t.Errorf("Fe thermal velocity = %g Å/ps, expected ≈3.7", v)
	}
	if PaperTimestep != 1e-5 {
		t.Error("paper timestep must be 1e-5 ps (1e-17 s)")
	}
}

func TestBlowupDetection(t *testing.T) {
	// An absurd timestep makes the integration explode; the simulator
	// must stop with a diagnosable error rather than emit NaNs.
	sys := feSystem(t, 4, 5000)
	cfg := DefaultConfig()
	cfg.Dt = 10.0 // 10 ps: wildly unstable
	sim, err := NewSimulator(sys, cfg)
	if err != nil {
		t.Fatal(err) // initial forces are fine
	}
	defer sim.Close()
	err = sim.Step(50)
	if err == nil {
		t.Fatal("unstable integration did not error")
	}
	if !strings.Contains(err.Error(), "md:") {
		t.Errorf("unhelpful blow-up error: %v", err)
	}
}

// alloyFeSystem builds a random 50/50 two-species bcc crystal with
// distinct masses (Fe and a lighter partner).
func alloyFeSystem(t *testing.T, cells int, temperature float64) (*System, []int32) {
	t.Helper()
	cfg := lattice.MustBuild(lattice.BCC, cells, cells, cells, 2.8665)
	sys := FromLattice(cfg)
	species := make([]int32, sys.N())
	masses := make([]float64, sys.N())
	for i := range species {
		species[i] = int32(i % 2)
		if species[i] == 0 {
			masses[i] = FeMass
		} else {
			masses[i] = 51.996 * AMU // chromium
		}
	}
	if err := sys.SetMasses(masses); err != nil {
		t.Fatal(err)
	}
	if err := sys.InitVelocities(temperature, 13); err != nil {
		t.Fatal(err)
	}
	return sys, species
}

func TestSetMassesValidation(t *testing.T) {
	sys := feSystem(t, 3, 0)
	if err := sys.SetMasses(make([]float64, 3)); err == nil {
		t.Error("wrong length accepted")
	}
	bad := make([]float64, sys.N())
	if err := sys.SetMasses(bad); err == nil {
		t.Error("zero masses accepted")
	}
	good := make([]float64, sys.N())
	for i := range good {
		good[i] = FeMass
	}
	if err := sys.SetMasses(good); err != nil {
		t.Fatal(err)
	}
	if sys.MassOf(0) != FeMass {
		t.Error("MassOf wrong")
	}
}

func TestAlloySimulatorValidation(t *testing.T) {
	sys, species := alloyFeSystem(t, 4, 100)
	cfg := DefaultConfig()
	// Both Pot and Alloy set: rejected.
	cfg.Alloy = potential.DefaultFeCr()
	cfg.Species = species
	if _, err := NewSimulator(sys, cfg); err == nil {
		t.Error("Pot+Alloy both set accepted")
	}
	// Neither set: rejected.
	cfg.Pot = nil
	cfg.Alloy = nil
	if _, err := NewSimulator(sys, cfg); err == nil {
		t.Error("neither Pot nor Alloy accepted")
	}
	// Alloy with wrong species length: rejected.
	cfg.Alloy = potential.DefaultFeCr()
	cfg.Species = species[:3]
	if _, err := NewSimulator(sys, cfg); err == nil {
		t.Error("short species accepted")
	}
}

func TestAlloyDynamicsNVE(t *testing.T) {
	sys, species := alloyFeSystem(t, 4, 150)
	cfg := DefaultConfig()
	cfg.Pot = nil
	cfg.Alloy = potential.DefaultFeCr()
	cfg.Species = species
	sim, err := NewSimulator(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	e0 := sim.TotalEnergy()
	if err := sim.Step(150); err != nil {
		t.Fatal(err)
	}
	e1 := sim.TotalEnergy()
	if drift := math.Abs(e1-e0) / math.Abs(e0); drift > 1e-4 {
		t.Errorf("alloy NVE drift %g (E %g -> %g)", drift, e0, e1)
	}
	// Momentum stays zero with unequal masses.
	if p := sys.Momentum(); p.Norm() > 1e-8 {
		t.Errorf("alloy momentum %v", p)
	}
}

func TestAlloyDynamicsWithSDC(t *testing.T) {
	sys, species := alloyFeSystem(t, 6, 100)
	ref := sys.Clone()

	run := func(s *System, k strategy.Kind, threads int) {
		cfg := DefaultConfig()
		cfg.Pot = nil
		cfg.Alloy = potential.DefaultFeCr()
		cfg.Species = species
		cfg.Strategy = k
		cfg.Threads = threads
		sim, err := NewSimulator(s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer sim.Close()
		if err := sim.Step(15); err != nil {
			t.Fatal(err)
		}
	}
	run(sys, strategy.Serial, 1)
	run(ref, strategy.SDC, 3)
	for i := range sys.Pos {
		if d := sys.Box.MinImage(sys.Pos[i], ref.Pos[i]).Norm(); d > 1e-7 {
			t.Fatalf("alloy SDC trajectory diverged at %d by %g", i, d)
		}
	}
}

func TestEquipartitionAcrossMasses(t *testing.T) {
	// After Maxwell-Boltzmann init, light and heavy species hold the
	// same average kinetic energy (equipartition), i.e. different
	// velocity scales.
	sys, species := alloyFeSystem(t, 6, 300)
	keBySpecies := [2]float64{}
	nBySpecies := [2]int{}
	for i, v := range sys.Vel {
		s := species[i]
		keBySpecies[s] += 0.5 * sys.MassOf(i) * v.Norm2()
		nBySpecies[s]++
	}
	mean0 := keBySpecies[0] / float64(nBySpecies[0])
	mean1 := keBySpecies[1] / float64(nBySpecies[1])
	if math.Abs(mean0-mean1)/mean0 > 0.15 {
		t.Errorf("equipartition violated: %g vs %g eV/atom", mean0, mean1)
	}
}

func TestConfigValidateNonFinite(t *testing.T) {
	for i, mut := range []func(*Config){
		func(c *Config) { c.Dt = math.NaN() },
		func(c *Config) { c.Dt = math.Inf(1) },
		func(c *Config) { c.Dt = math.Inf(-1) },
		func(c *Config) { c.Skin = math.NaN() },
		func(c *Config) { c.Skin = math.Inf(1) },
		func(c *Config) { c.Threads = 0 },
		func(c *Config) { c.Threads = -4 },
	} {
		cfg := DefaultConfig()
		mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("mutation %d accepted by Validate", i)
		}
	}
	cfg := DefaultConfig()
	if err := cfg.Validate(); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
	// The same rejections must reach NewSimulator before any stepping.
	sys := feSystem(t, 3, 100)
	bad := DefaultConfig()
	bad.Dt = math.NaN()
	if _, err := NewSimulator(sys, bad); err == nil {
		t.Error("NaN Dt accepted by NewSimulator")
	}
}

func TestRebuildBarrierKeepsTrajectory(t *testing.T) {
	// Forcing a rebuild mid-run must not change the physics: the same
	// positions produce the same (within-tolerance) forces, and the
	// subsequent trajectory matches a checkpoint-restored run exactly.
	sys := feSystem(t, 3, 150)
	cfg := DefaultConfig()
	simA, err := NewSimulator(sys.Clone(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer simA.Close()
	if err := simA.Step(7); err != nil {
		t.Fatal(err)
	}
	if err := simA.Rebuild(); err != nil {
		t.Fatal(err)
	}
	// A fresh simulator built from the post-rebuild state sees the same
	// forces bit-for-bit (both lists were built from the same positions).
	simB, err := NewSimulator(simA.Sys.Clone(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer simB.Close()
	for i := range simA.Sys.Force {
		if simA.Sys.Force[i] != simB.Sys.Force[i] {
			t.Fatalf("force[%d] differs after rebuild barrier: %v vs %v",
				i, simA.Sys.Force[i], simB.Sys.Force[i])
		}
	}
	if err := simA.Step(5); err != nil {
		t.Fatal(err)
	}
	if err := simB.Step(5); err != nil {
		t.Fatal(err)
	}
	for i := range simA.Sys.Pos {
		if simA.Sys.Pos[i] != simB.Sys.Pos[i] {
			t.Fatalf("trajectories diverged at atom %d", i)
		}
	}
	simA.Close()
	if err := simA.Rebuild(); err == nil {
		t.Error("Rebuild after Close accepted")
	}
}
