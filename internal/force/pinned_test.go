package force

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
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
// or sweep refactor must leave every hash unchanged. Fe also runs
// under Serial through the EAM-interface kernels, behind a wrapper
// that hides its type from NewEngine: the interface path that
// Tabulated and PairOnly take must hash to the analytic kernels' value.
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
	ifaceEng, err := NewEngine(struct{ potential.EAM }{fe}, cfg.Box)
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
		{"fe/serial-interface", ifaceEng.Compute, reducer(strategy.Serial, fe.Cutoff(), cfg.Pos, nil), cfg.Pos, 0xd37a4d6d0ee90e04},
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

// TestChunkedRowsMatchPairLoop pins the row chunking of the Terms
// contract bit for bit. A 3 Å skin gives half-list rows of about 110
// neighbors, so the reducers hand most rows to the kernels in more than
// one 64-pair chunk. ρ, the forces and the pair energy of Engine, for
// Fe and Fe0.9Cr0.1 under Serial and 2-worker 1D SDC (two subdomains per
// color, so both workers fill their own scratch at once), must equal an
// in-test loop that walks the same rows pair by pair, in the reducer's
// row order, with the kernels' formulas and without the cutoff pairs.
// Within one SDC color no two subdomains share a slot, so every slot
// receives its contributions in that order.
func TestChunkedRowsMatchPairLoop(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("the engine and the loop may fuse x*y+z differently on %s", runtime.GOARCH)
	}
	const skin = 3.0
	cfg := lattice.MustBuild(lattice.BCC, 19, 5, 5, lattice.FeLatticeConstant)
	cfg.Jitter(0.1, 23)
	n := cfg.N()
	rng := rand.New(rand.NewSource(29))
	species := make([]int32, n)
	for i := range species {
		if rng.Float64() < 0.1 {
			species[i] = 1 // Cr
		}
	}
	fe, al := potential.DefaultFe(), potential.DefaultFeCr()
	feEng, err := NewEngine(fe, cfg.Box)
	if err != nil {
		t.Fatal(err)
	}
	alEng, err := NewAlloyEngine(al, cfg.Box, species)
	if err != nil {
		t.Fatal(err)
	}
	pool := strategy.MustNewPool(2)
	defer pool.Close()

	for _, c := range []struct {
		name string
		eng  *Engine
		f    pairFormulas
	}{
		{"fe", feEng, feFormulas(fe)},
		{"alloy", alEng, alloyFormulas(al, species)},
	} {
		list, err := neighbor.Builder{Cutoff: c.eng.Cutoff(), Skin: skin, Half: true}.Build(cfg.Box, cfg.Pos)
		if err != nil {
			t.Fatal(err)
		}
		long := 0
		for i := 0; i < n; i++ {
			if len(list.Neighbors(i)) > 64 {
				long++
			}
		}
		if long < n/4 {
			t.Fatalf("%s: only %d of %d rows exceed one chunk", c.name, long, n)
		}
		dec, err := core.Decompose(cfg.Box, cfg.Pos, core.Dim1, c.eng.Cutoff()+skin)
		if err != nil {
			t.Fatal(err)
		}
		serialRows := make([]int32, n)
		for i := range serialRows {
			serialRows[i] = int32(i)
		}
		var sdcRows []int32
		for _, subs := range dec.ByColor {
			if len(subs) < 2 {
				t.Fatalf("%s: a color with %d subdomains leaves a worker idle", c.name, len(subs))
			}
			for _, s := range subs {
				sdcRows = append(sdcRows, dec.Atoms(int(s))...)
			}
		}
		for _, k := range []struct {
			kind strategy.Kind
			rows []int32
		}{{strategy.Serial, serialRows}, {strategy.SDC, sdcRows}} {
			red, err := strategy.New(strategy.Config{Kind: k.kind, List: list, Pool: pool, Decomp: dec})
			if err != nil {
				t.Fatal(err)
			}
			gotF := make([]vec.Vec3, n)
			if _, err := c.eng.Compute(red, cfg.Pos, gotF); err != nil {
				t.Fatal(err)
			}
			gotRho := append([]float64(nil), c.eng.Rho()...)
			gotPair, err := c.eng.PairEnergy(red, cfg.Pos)
			if err != nil {
				t.Fatal(err)
			}
			wantRho, wantF, wantPair := c.f.walk(cfg.Box.Image(), cfg.Pos, list, k.rows)
			name := c.name + "/" + k.kind.String()
			for i := range wantRho {
				if math.Float64bits(gotRho[i]) != math.Float64bits(wantRho[i]) {
					t.Fatalf("%s: rho[%d] = %v, pair loop %v", name, i, gotRho[i], wantRho[i])
				}
				for a := 0; a < 3; a++ {
					if math.Float64bits(gotF[i][a]) != math.Float64bits(wantF[i][a]) {
						t.Fatalf("%s: F[%d] = %v, pair loop %v", name, i, gotF[i], wantF[i])
					}
				}
			}
			if math.Float64bits(gotPair) != math.Float64bits(wantPair) {
				t.Fatalf("%s: pair energy %v, pair loop %v", name, gotPair, wantPair)
			}
		}
	}
}

// pairFormulas are one engine's per-pair formulas, written out
// independently of its kernels.
type pairFormulas struct {
	cut     float64
	density func(i, j int32, r float64) (toI, toJ float64)
	embed   func(i int32, rho float64) (df float64)
	coeff   func(i, j int32, r float64, fp []float64) float64 // force along d is −coeff·d/r
	energy  func(i, j int32, r float64) float64
}

func feFormulas(fe *potential.FeEAM) pairFormulas {
	return pairFormulas{
		cut: fe.Cutoff(),
		density: func(_, _ int32, r float64) (float64, float64) {
			phi, _ := fe.Density(r)
			return phi, phi
		},
		embed: func(_ int32, rho float64) float64 {
			_, df := fe.Embed(rho)
			return df
		},
		coeff: func(i, j int32, r float64, fp []float64) float64 {
			_, dv := fe.Energy(r)
			_, dphi := fe.Density(r)
			return dv + (fp[i]+fp[j])*dphi
		},
		energy: func(_, _ int32, r float64) float64 {
			v, _ := fe.Energy(r)
			return v
		},
	}
}

func alloyFormulas(al *potential.BinaryAlloy, sp []int32) pairFormulas {
	return pairFormulas{
		cut: al.Cutoff(),
		density: func(i, j int32, r float64) (float64, float64) {
			fromJ, _ := al.DensityOf(int(sp[j]), r)
			fromI, _ := al.DensityOf(int(sp[i]), r)
			return fromJ, fromI
		},
		embed: func(i int32, rho float64) float64 {
			_, df := al.EmbedOf(int(sp[i]), rho)
			return df
		},
		coeff: func(i, j int32, r float64, fp []float64) float64 {
			_, dv := al.PairEnergy(int(sp[i]), int(sp[j]), r)
			_, dphiJ := al.DensityOf(int(sp[j]), r)
			_, dphiI := al.DensityOf(int(sp[i]), r)
			return dv + fp[i]*dphiJ + fp[j]*dphiI
		},
		energy: func(i, j int32, r float64) float64 {
			v, _ := al.PairEnergy(int(sp[i]), int(sp[j]), r)
			return v
		},
	}
}

// walk evaluates ρ, the forces and the pair energy one pair at a time,
// over the rows of list in the given order, skipping the pairs outside
// the cutoff.
func (p pairFormulas) walk(im box.Image, pos []vec.Vec3, list *neighbor.List, rows []int32) (rho []float64, f []vec.Vec3, pair float64) {
	n := len(pos)
	disp := func(i, j int32) (vec.Vec3, float64) {
		d := im.Min(pos[i][0]-pos[j][0], pos[i][1]-pos[j][1], pos[i][2]-pos[j][2])
		return d, d.Norm()
	}
	inside := func(r float64) bool { return r > 0 && r < p.cut }
	rho = make([]float64, n)
	per := make([]float64, n)
	for _, i := range rows {
		for _, j := range list.Neighbors(int(i)) {
			if _, r := disp(i, j); inside(r) {
				toI, toJ := p.density(i, j, r)
				rho[i] += toI
				rho[j] += toJ
				v := p.energy(i, j, r)
				per[i] += v / 2
				per[j] += v / 2
			}
		}
	}
	fp := make([]float64, n)
	for i := range fp {
		fp[i] = p.embed(int32(i), rho[i])
	}
	f = make([]vec.Vec3, n)
	for _, i := range rows {
		for _, j := range list.Neighbors(int(i)) {
			if d, r := disp(i, j); inside(r) {
				fij := d.Scale(-p.coeff(i, j, r, fp) / r)
				f[i] = f[i].Add(fij)
				f[j] = f[j].Sub(fij)
			}
		}
	}
	for _, v := range per {
		pair += v
	}
	return rho, f, pair
}
