package md

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"sdcmd/internal/core"
	"sdcmd/internal/potential"
	"sdcmd/internal/strategy"
	"sdcmd/internal/vec"
)

// stepBits hashes (FNV-64a) the Float64bits of every component of the
// positions, then the velocities, then the forces.
func stepBits(sys *System) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, arr := range [][]vec.Vec3{sys.Pos, sys.Vel, sys.Force} {
		for _, v := range arr {
			for _, x := range v {
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
				_, _ = h.Write(buf[:]) // hash.Hash.Write never fails
			}
		}
	}
	return h.Sum64()
}

// TestStepOutputBitsPinned pins the exact positions, velocities and
// forces after runs long enough for at least three neighbor-list
// rebuilds: the integrator's kicks, drift and wrap, the skin check and
// every rebuild (rebin, block reorder, list build) must leave each bit
// where it was, whatever worker pool runs them.
func TestStepOutputBitsPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("output bits are pinned on amd64 only: Go fuses x*y+z into one rounding on %s "+
			"(as on arm64, ppc64, s390x and riscv64), but on amd64 only for explicit math.FMA", runtime.GOARCH)
	}
	sdc := func(threads int, blocked bool) func(*Config) {
		return func(c *Config) {
			c.Strategy = strategy.SDC
			c.Threads = threads
			c.Dim = core.Dim2
			c.BlockReorder = blocked
		}
	}
	for _, c := range []struct {
		name  string
		temp  float64
		alloy bool
		cfg   func(*Config)
		steps int
		want  uint64
	}{
		{"fe-sdc-blocked-2w", 900, false, sdc(2, true), 60, 0x23815c2defc15655},
		{"fe-sdc-blocked-3w", 900, false, sdc(3, true), 60, 0x23815c2defc15655},
		{"fe-hot-skin0.15", 1500, false, func(c *Config) { sdc(2, true)(c); c.Skin = 0.15 }, 40, 0xcc74667afb78a97e},
		{"fecr-sdc-scattered", 900, true, sdc(2, false), 60, 0xe605a2782438a5bb},
		{"serial-berendsen", 900, false, func(c *Config) { c.Thermostat = &Berendsen{Target: 600, Tau: 0.05} }, 60, 0x738631053f62bcb0},
		{"skin0", 900, false, func(c *Config) { sdc(2, true)(c); c.Skin = 0 }, 8, 0x808e94f80f085d89},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Dt = 2e-3
			var sys *System
			if c.alloy {
				var species []int32
				sys, species = alloyFeSystem(t, 8, c.temp)
				cfg.Pot, cfg.Alloy, cfg.Species = nil, potential.DefaultFeCr(), species
			} else {
				sys = feSystem(t, 8, c.temp)
			}
			c.cfg(&cfg)
			sim, err := NewSimulator(sys, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer sim.Close()
			if err := sim.Step(c.steps); err != nil {
				t.Fatal(err)
			}
			if r := sim.Rebuilds() - 1; r < 3 {
				t.Errorf("%d rebuilds after the initial build, want >= 3", r)
			}
			if got := stepBits(sys); got != c.want {
				t.Errorf("state bits after %d steps %#x, want %#x", c.steps, got, c.want)
			}
		})
	}
}

// stepErrorCases are the pools the error tests run under: Serial, which
// runs each pass inline, and 1, 2 and 3 pool workers.
var stepErrorCases = []struct {
	name    string
	strat   strategy.Kind
	threads int
}{
	{"serial", strategy.Serial, 1},
	{"pool-1", strategy.SDC, 1},
	{"pool-2", strategy.SDC, 2},
	{"pool-3", strategy.SDC, 3},
}

// plantedSim returns a 432-atom simulator under the case's pool and two
// atoms a < b, one in the first worker's chunk and one in the last's.
func plantedSim(t *testing.T, strat strategy.Kind, threads int) (sim *Simulator, a, b int) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Strategy, cfg.Threads = strat, threads
	sim, err := NewSimulator(feSystem(t, 6, 300), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sim.Close)
	n := sim.Sys.N()
	return sim, n / (4 * threads), n - n/(4*threads) - 1
}

// TestUnstableMoveNamesLowestAtom plants an unstable move on two atoms
// in different workers' chunks: the error must name the lower one, with
// its move, in the serial loop's words.
func TestUnstableMoveNamesLowestAtom(t *testing.T) {
	for _, c := range stepErrorCases {
		for _, lowNaN := range []bool{false, true} {
			sim, a, b := plantedSim(t, c.strat, c.threads)
			if err := sim.Step(2); err != nil {
				t.Fatal(err)
			}
			sys, dt := sim.Sys, sim.Config().Dt
			fast, bad := vec.New(1e6, -2e5, 3), vec.New(math.NaN(), 0, 0)
			if lowNaN {
				fast, bad = bad, fast
			}
			sys.Vel[a], sys.Vel[b] = fast, bad
			move := sys.Vel[a].AddScaled(0.5*dt/sys.MassOf(a), sys.Force[a]).Scale(dt)
			want := fmt.Sprintf("md: atom %d moved %g Å in one step at step %d — unstable integration (reduce dt)",
				a, move.Norm(), sim.StepCount())
			err := sim.Step(1)
			if err == nil || err.Error() != want {
				t.Errorf("%s (NaN on the lower atom %v): error %v, want %q", c.name, lowNaN, err, want)
			}
		}
	}
}

// TestNonFiniteForceNamesLowestAtom plants non-finite forces on two
// atoms in different workers' chunks and runs the pooled force scan:
// the error must name the lower atom, in the serial loop's words.
func TestNonFiniteForceNamesLowestAtom(t *testing.T) {
	for _, c := range stepErrorCases {
		sim, a, b := plantedSim(t, c.strat, c.threads)
		if err := sim.checkForces(); err != nil {
			t.Fatalf("%s: finite forces flagged: %v", c.name, err)
		}
		sim.Sys.Force[b] = vec.New(0, math.NaN(), 0)
		sim.Sys.Force[a] = vec.New(0, 0, math.Inf(-1))
		want := fmt.Sprintf("md: non-finite force on atom %d at step %d (dt too large or atoms overlapping)", a, sim.StepCount())
		if err := sim.checkForces(); err == nil || err.Error() != want {
			t.Errorf("%s: error %v, want %q", c.name, err, want)
		}
	}
}

// TestStepAllocations pins the heap allocations of a steady step, no
// rebuild, on a 2 000-atom crystal: the integrator's passes are bound
// once, so a step allocates only what the force evaluation does.
func TestStepAllocations(t *testing.T) {
	for _, c := range []struct {
		name    string
		strat   strategy.Kind
		threads int
		limit   float64
	}{
		{"serial", strategy.Serial, 1, 3},
		{"sdc-2w", strategy.SDC, 2, 20},
	} {
		cfg := DefaultConfig()
		cfg.Strategy, cfg.Threads = c.strat, c.threads
		sim, err := NewSimulator(feSystem(t, 10, 50), cfg)
		if err != nil {
			t.Fatal(err)
		}
		r0 := sim.Rebuilds()
		allocs := testing.AllocsPerRun(20, func() {
			if err := sim.Step(1); err != nil {
				t.Fatal(err)
			}
		})
		if sim.Rebuilds() != r0 {
			t.Errorf("%s: the steps rebuilt the list, so they were not steady", c.name)
		}
		if allocs > c.limit {
			t.Errorf("%s: %v allocations per step, want <= %v", c.name, allocs, c.limit)
		}
		sim.Close()
	}
}
