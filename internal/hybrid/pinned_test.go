package hybrid

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"runtime"
	"slices"
	"testing"

	"sdcmd/internal/strategy"
	"sdcmd/internal/vec"
)

// stateBits hashes (FNV-64a) the Float64bits of every component of the
// gathered positions, then velocities, then forces.
func stateBits(sim *Simulator) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	pos, vel, frc := sim.Gather()
	for _, arr := range [][]vec.Vec3{pos, vel, frc} {
		for _, v := range arr {
			for _, x := range v {
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
				_, _ = h.Write(buf[:]) // hash.Hash.Write never fails
			}
		}
	}
	return h.Sum64()
}

// ownedIDs returns a copy of each rank's owned global ids.
func ownedIDs(sim *Simulator) [][]int32 {
	out := make([][]int32, len(sim.ranks))
	for k, r := range sim.ranks {
		out[k] = slices.Clone(r.gid[:r.nOwned])
	}
	return out
}

// TestHybridOutputBitsPinned pins the exact gathered positions,
// velocities and forces of the hybrid engine, right after NewSimulator
// and after a hot, small-skin run that rebuilds and migrates atoms
// between ranks, for 2 ranks × Serial and 2 ranks × 2-thread SDC.
// Energies are left out: they are reductions whose low bits depend on
// how the per-thread partial sums are grouped.
func TestHybridOutputBitsPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("output bits are pinned on amd64 only: Go fuses x*y+z into one rounding on %s "+
			"(as on arm64, ppc64, s390x and riscv64), but on amd64 only for explicit math.FMA", runtime.GOARCH)
	}
	for _, c := range []struct {
		name         string
		strat        strategy.Kind
		threads      int
		initial, hot uint64
	}{
		{"serial", strategy.Serial, 1, 0xf9b0c6be841a0450, 0xd350967ec9a8b4c1},
		{"sdc", strategy.SDC, 2, 0x1e44acd2bfa54aa1, 0x89e6c281a006b33d},
	} {
		sys := globalSystem(t, 6, 1500)
		cfg := DefaultConfig()
		cfg.Strategy = c.strat
		cfg.ThreadsPerRank = c.threads
		cfg.Skin = 0.15
		cfg.Dt = 2e-3
		sim, err := NewSimulator(sys.Box, sys.Pos, sys.Vel, cfg)
		if err != nil {
			t.Fatal(err)
		}
		before := ownedIDs(sim)
		if got := stateBits(sim); got != c.initial {
			t.Errorf("%s: initial state bits %#x, want %#x", c.name, got, c.initial)
		}
		if err := sim.Step(40); err != nil {
			sim.Close()
			t.Fatal(err)
		}
		if slices.EqualFunc(before, ownedIDs(sim), slices.Equal[[]int32]) {
			t.Errorf("%s: no atom migrated, so the run did not cover a rebuild", c.name)
		}
		if got := stateBits(sim); got != c.hot {
			t.Errorf("%s: state bits after 40 hot steps %#x, want %#x", c.name, got, c.hot)
		}
		sim.Close()
	}
}
