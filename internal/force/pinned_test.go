package force

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"sdcmd/internal/core"
	"sdcmd/internal/lattice"
	"sdcmd/internal/neighbor"
	"sdcmd/internal/potential"
	"sdcmd/internal/reorder"
	"sdcmd/internal/strategy"
	"sdcmd/internal/vec"
)

// computeFunc is the Compute method of a force engine.
type computeFunc func(red strategy.Reducer, pos, f []vec.Vec3) (Result, error)

// outputBits runs one Compute and hashes (FNV-64a) the Float64bits of
// every force component, then of EmbedEnergy, MinRho and MaxRho.
func outputBits(t *testing.T, compute computeFunc, red strategy.Reducer, pos []vec.Vec3) uint64 {
	t.Helper()
	f := make([]vec.Vec3, len(pos))
	res, err := compute(red, pos, f)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	var buf [8]byte
	put := func(x float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
		_, _ = h.Write(buf[:]) // hash.Hash.Write never fails
	}
	for _, v := range f {
		put(v[0])
		put(v[1])
		put(v[2])
	}
	put(res.EmbedEnergy)
	put(res.MinRho)
	put(res.MaxRho)
	return h.Sum64()
}

// TestEngineOutputBitsPinned pins the exact output bits of the force
// engine on one fixed crystal: single-species Fe under Serial, under
// 2-thread 2D SDC on the scattered layout and under SDC after a block
// reorder, and a random Fe0.9Cr0.1 alloy under Serial and SDC. The
// per-pair arithmetic and the summation order are what bit-for-bit
// resume and the blocked≡scattered physics tests rely on, so a kernel
// or sweep refactor must leave every hash unchanged.
func TestEngineOutputBitsPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("output bits are pinned on amd64 only: Go fuses x*y+z into one rounding on %s "+
			"(as on arm64, ppc64, s390x and riscv64), but on amd64 only for explicit math.FMA", runtime.GOARCH)
	}
	const skin = 0.5
	cfg := lattice.MustBuild(lattice.BCC, 8, 8, 8, lattice.FeLatticeConstant)
	cfg.Jitter(0.1, 31)
	rng := rand.New(rand.NewSource(41))
	species := make([]int32, cfg.N())
	for i := range species {
		if rng.Float64() < 0.1 {
			species[i] = 1 // Cr
		}
	}
	fe, al := potential.DefaultFe(), potential.DefaultFeCr()
	pool := strategy.MustNewPool(2)
	defer pool.Close()

	reducer := func(kind strategy.Kind, cut float64, pos []vec.Vec3, dec *core.Decomposition) strategy.Reducer {
		t.Helper()
		list, err := neighbor.Builder{Cutoff: cut, Skin: skin, Half: true}.Build(cfg.Box, pos)
		if err != nil {
			t.Fatal(err)
		}
		red, err := strategy.New(strategy.Config{Kind: kind, List: list, Pool: pool, Decomp: dec})
		if err != nil {
			t.Fatal(err)
		}
		return red
	}
	decompose := func(cut float64, pos []vec.Vec3) *core.Decomposition {
		t.Helper()
		dec, err := core.Decompose(cfg.Box, pos, core.Dim2, cut+skin)
		if err != nil {
			t.Fatal(err)
		}
		return dec
	}

	scattered := decompose(fe.Cutoff(), cfg.Pos)
	blockedDec := decompose(fe.Cutoff(), cfg.Pos)
	perm, err := reorder.FromNewToOld(blockedDec.PartIndex)
	if err != nil {
		t.Fatal(err)
	}
	blocked := perm.ApplyVec3(cfg.Pos)
	blockedDec.Rebin(blocked)

	feEng, err := NewEngine(fe, cfg.Box)
	if err != nil {
		t.Fatal(err)
	}
	alEng, err := NewAlloyEngine(al, cfg.Box, species)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name    string
		compute computeFunc
		red     strategy.Reducer
		pos     []vec.Vec3
		want    uint64
	}{
		{"fe/serial", feEng.Compute, reducer(strategy.Serial, fe.Cutoff(), cfg.Pos, nil), cfg.Pos, 0xd37a4d6d0ee90e04},
		{"fe/sdc-scattered", feEng.Compute, reducer(strategy.SDC, fe.Cutoff(), cfg.Pos, scattered), cfg.Pos, 0x3c7735db235fcddb},
		{"fe/sdc-blocked", feEng.Compute, reducer(strategy.SDC, fe.Cutoff(), blocked, blockedDec), blocked, 0xd06b483d406578ac},
		{"alloy/serial", alEng.Compute, reducer(strategy.Serial, al.Cutoff(), cfg.Pos, nil), cfg.Pos, 0x6bb9f30e11df344f},
		{"alloy/sdc", alEng.Compute, reducer(strategy.SDC, al.Cutoff(), cfg.Pos, decompose(al.Cutoff(), cfg.Pos)), cfg.Pos, 0x03ae8e92cb6d9b92},
	} {
		if got := outputBits(t, c.compute, c.red, c.pos); got != c.want {
			t.Errorf("%s: output bits hash %#x, want %#x", c.name, got, c.want)
		}
	}
}
