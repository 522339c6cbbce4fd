package force

import (
	"errors"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"sdcmd/internal/core"
	"sdcmd/internal/lattice"
	"sdcmd/internal/neighbor"
	"sdcmd/internal/potential"
	"sdcmd/internal/strategy"
	"sdcmd/internal/vec"
)

// FuzzStrategiesAgree checks the strategy invariants over generated
// crystals instead of one hand-picked lattice. The raw inputs map onto
// 3–7 bcc cells per axis, 0–0.15 Å jitter, 0–0.8 Å skin, 1–5 workers,
// a 1D, 2D or 3D SDC decomposition, and pure Fe or a random
// Fe0.9Cr0.1 alloy. For every input:
//   - core.Decompose returns a decomposition whose Verify passes, or an
//     error wrapping ErrTooFewSubdomains or ErrTooManyCells;
//   - every strategy's forces match Serial's within 1e-9·scale, and
//     |ΣF| ≤ 1e-12·N·scale;
//   - for Fe, Serial through the EAM-interface kernels (the potential
//     behind a wrapper that hides its type from NewEngine) gives the
//     analytic kernels' forces bit for bit, on amd64, where Go fuses no
//     x*y+z on its own (see TestEngineOutputBitsPinned);
//   - SDC on the generated workers gives the forces of SDC on one
//     worker bit for bit: whichever worker claims a subdomain, every
//     slot receives the same addends in the same order.
//
// scale is max|F| of the Serial forces, floored at 1 eV/Å: on an
// unjittered lattice every force is rounding residue of order 1e-15
// eV/Å, and strategies that sum a row in another order legitimately
// differ by that much. Inputs the neighbor builder rejects (a box too
// small for the cutoff) are skipped.
func FuzzStrategiesAgree(f *testing.F) {
	f.Fuzz(func(t *testing.T, cells, threads, dim uint8, jitter, skin uint16, alloy bool, seed int64) {
		n := 3 + int(cells)%5
		workers := 1 + int(threads)%5
		d := core.Dim(1 + int(dim)%3)
		amp := 0.15 * float64(jitter) / math.MaxUint16
		sk := 0.8 * float64(skin) / math.MaxUint16

		cfg := lattice.MustBuild(lattice.BCC, n, n, n, 2.8665)
		cfg.Jitter(amp, seed)
		var eng *Engine
		var err error
		if alloy {
			rng := rand.New(rand.NewSource(seed))
			species := make([]int32, cfg.N())
			for i := range species {
				if rng.Float64() < 0.1 {
					species[i] = 1
				}
			}
			eng, err = NewAlloyEngine(potential.DefaultFeCr(), cfg.Box, species)
		} else {
			eng, err = NewEngine(potential.DefaultFe(), cfg.Box)
		}
		if err != nil {
			t.Fatal(err)
		}
		list, err := neighbor.Builder{Cutoff: eng.Cutoff(), Skin: sk, Half: true}.Build(cfg.Box, cfg.Pos)
		if err != nil {
			t.Skipf("neighbor builder rejects %d cells, skin %g: %v", n, sk, err)
		}

		dec, err := core.Decompose(cfg.Box, cfg.Pos, d, eng.Cutoff()+sk)
		switch {
		case err == nil:
			if err := dec.Verify(cfg.Pos); err != nil {
				t.Fatalf("%v decomposition of %d cells fails Verify: %v", d, n, err)
			}
		case errors.Is(err, core.ErrTooFewSubdomains), errors.Is(err, core.ErrTooManyCells):
			dec = nil
		default:
			t.Fatalf("%v decomposition of %d cells: untyped error %v", d, n, err)
		}

		pool := strategy.MustNewPool(workers)
		defer pool.Close()
		computeOn := func(pool *strategy.Pool, eng *Engine, k strategy.Kind) []vec.Vec3 {
			red, err := strategy.New(strategy.Config{Kind: k, List: list, Pool: pool, Decomp: dec})
			if err != nil {
				t.Fatalf("%v: %v", k, err)
			}
			forces := make([]vec.Vec3, cfg.N())
			if _, err := eng.Compute(red, cfg.Pos, forces); err != nil {
				t.Fatalf("%v: %v", k, err)
			}
			return forces
		}
		compute := func(eng *Engine, k strategy.Kind) []vec.Vec3 { return computeOn(pool, eng, k) }
		want := compute(eng, strategy.Serial)
		if !alloy && runtime.GOARCH == "amd64" {
			iface, err := NewEngine(struct{ potential.EAM }{potential.DefaultFe()}, cfg.Box)
			if err != nil {
				t.Fatal(err)
			}
			got := compute(iface, strategy.Serial)
			for i := range got {
				for a := 0; a < 3; a++ {
					if math.Float64bits(got[i][a]) != math.Float64bits(want[i][a]) {
						t.Fatalf("interface kernels: F[%d] = %v, analytic kernels %v", i, got[i], want[i])
					}
				}
			}
		}
		scale := max(vec.MaxNorm(want), 1)
		for _, k := range strategy.Kinds {
			if k == strategy.SDC && dec == nil {
				continue
			}
			got := compute(eng, k)
			for i := range got {
				if !got[i].ApproxEqual(want[i], 1e-9*scale) {
					t.Fatalf("%v, %d workers: F[%d] = %v, Serial %v", k, workers, i, got[i], want[i])
				}
			}
			if net := vec.Sum(got).Norm(); net > 1e-12*float64(len(got))*scale {
				t.Fatalf("%v, %d workers: |ΣF| = %g over %d atoms, max|F| %g", k, workers, net, len(got), scale)
			}
			if k == strategy.SDC {
				one := strategy.MustNewPool(1)
				defer one.Close()
				ref := computeOn(one, eng, k)
				for i := range got {
					for a := 0; a < 3; a++ {
						if math.Float64bits(got[i][a]) != math.Float64bits(ref[i][a]) {
							t.Fatalf("SDC, %d workers: F[%d] = %v, 1 worker %v", workers, i, got[i], ref[i])
						}
					}
				}
			}
		}
	})
}
