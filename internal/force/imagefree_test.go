package force

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"sdcmd/internal/box"
	"sdcmd/internal/core"
	"sdcmd/internal/lattice"
	"sdcmd/internal/neighbor"
	"sdcmd/internal/potential"
	"sdcmd/internal/strategy"
	"sdcmd/internal/vec"
)

// FuzzImageFreeRows checks the image-free rows of dists and disps (see
// Engine.dists) against the pair loop of TestChunkedRowsMatchPairLoop,
// which applies the image to every pair. The raw inputs map onto a bcc
// crystal of 3–7 cells on each axis, shifted by offset/1024 Å on every
// axis or centred on the origin, with 0–0.15 Å jitter and a 0–0.8 Å
// skin, of Fe or a random Fe0.9Cr0.1 alloy. The bits of place then
// move atoms, picked by seed, onto the cases of the argument:
//   - 1: one atom onto Lo on one axis;
//   - 2: in a centred box, the atom nearest the origin to −0 on one
//     axis and its nearest neighbor to +0, so that a kept pair has
//     d = −0 there;
//   - 4: one atom onto Lo + cutoff and one onto Hi − cutoff on every
//     axis, each moved by ulps ulps;
//   - 8: one atom out of [Lo, Hi) on one axis, to Hi or one box length
//     out;
//   - 16: one axis open.
//
// Under Serial on amd64, ρ, the forces and PairEnergy must equal the
// pair loop bit for bit. Inputs the neighbor builder rejects (a box
// too small for the cutoff) are skipped.
func FuzzImageFreeRows(f *testing.F) {
	f.Fuzz(func(t *testing.T, nx, ny, nz uint8, offset int32, centred bool, jitter, skin uint16, alloy bool, place uint8, ulps int8, seed int64) {
		if runtime.GOARCH != "amd64" {
			t.Skipf("the engine and the loop may fuse x*y+z differently on %s", runtime.GOARCH)
		}
		cfg := lattice.MustBuild(lattice.BCC, 3+int(nx)%5, 3+int(ny)%5, 3+int(nz)%5, lattice.FeLatticeConstant)
		cfg.Jitter(0.15*float64(jitter)/math.MaxUint16, seed)
		sk := 0.8 * float64(skin) / math.MaxUint16
		shift := vec.Splat(float64(offset) / 1024)
		if centred {
			shift = cfg.Box.Hi.Scale(-0.5)
		}
		bx := box.MustNew(cfg.Box.Lo.Add(shift), cfg.Box.Hi.Add(shift))
		pos := make([]vec.Vec3, cfg.N())
		for i, p := range cfg.Pos {
			p = bx.Wrap(p.Add(shift))
			for a := range p {
				p[a] = max(p[a], bx.Lo[a]) // Wrap can round Hi to just below Lo
			}
			pos[i] = p
		}

		rng := rand.New(rand.NewSource(seed))
		species := make([]int32, len(pos))
		formulas := feFormulas(potential.DefaultFe())
		if alloy {
			for i := range species {
				if rng.Float64() < 0.1 {
					species[i] = 1 // Cr
				}
			}
			formulas = alloyFormulas(potential.DefaultFeCr(), species)
		}
		cut := formulas.cut
		atom := func() int { return rng.Intn(len(pos)) }
		if place&1 != 0 {
			a := rng.Intn(3)
			pos[atom()][a] = bx.Lo[a]
		}
		if place&2 != 0 && centred {
			i := nearest(pos, vec.Zero, -1)
			j := nearest(pos, pos[i], i)
			a := rng.Intn(3)
			pos[min(i, j)][a], pos[max(i, j)][a] = math.Copysign(0, -1), 0
		}
		if place&4 != 0 {
			for a := range 3 {
				pos[atom()][a] = ulpsAway(bx.Lo[a]+cut, int(ulps))
				pos[atom()][a] = ulpsAway(bx.Hi[a]-cut, int(ulps))
			}
		}
		if place&8 != 0 {
			a, k := rng.Intn(3), atom()
			if rng.Intn(2) == 0 {
				pos[k][a] = bx.Hi[a]
			} else {
				pos[k][a] += bx.Hi[a] - bx.Lo[a]
			}
		}
		if place&16 != 0 {
			bx.Periodic[rng.Intn(3)] = false
		}

		var eng *Engine
		var err error
		if alloy {
			eng, err = NewAlloyEngine(potential.DefaultFeCr(), bx, species)
		} else {
			eng, err = NewEngine(potential.DefaultFe(), bx)
		}
		if err != nil {
			t.Fatal(err)
		}
		list, err := neighbor.Builder{Cutoff: cut, Skin: sk, Half: true}.Build(bx, pos)
		if err != nil {
			t.Skipf("neighbor builder rejects box %v, skin %g: %v", bx, sk, err)
		}
		red, err := strategy.New(strategy.Config{Kind: strategy.Serial, List: list})
		if err != nil {
			t.Fatal(err)
		}
		gotF := make([]vec.Vec3, len(pos))
		if _, err := eng.Compute(red, pos, gotF); err != nil {
			t.Fatal(err)
		}
		gotRho := slices.Clone(eng.Rho())
		gotPair, err := eng.PairEnergy(red, pos)
		if err != nil {
			t.Fatal(err)
		}
		rows := make([]int32, len(pos))
		for i := range rows {
			rows[i] = int32(i)
		}
		wantRho, wantF, wantPair := formulas.walk(bx.Image(), pos, list, rows)
		for i := range wantRho {
			if math.Float64bits(gotRho[i]) != math.Float64bits(wantRho[i]) {
				t.Fatalf("rho[%d] = %v, pair loop %v (atom at %v)", i, gotRho[i], wantRho[i], pos[i])
			}
			for a := range 3 {
				if math.Float64bits(gotF[i][a]) != math.Float64bits(wantF[i][a]) {
					t.Fatalf("F[%d] = %v, pair loop %v (atom at %v)", i, gotF[i], wantF[i], pos[i])
				}
			}
		}
		if math.Float64bits(gotPair) != math.Float64bits(wantPair) {
			t.Fatalf("pair energy %v, pair loop %v", gotPair, wantPair)
		}
	})
}

// nearest returns the index of the atom of pos nearest p, other than
// skip.
func nearest(pos []vec.Vec3, p vec.Vec3, skip int) int {
	best, bestD2 := -1, math.Inf(1)
	for i, q := range pos {
		if d2 := q.Sub(p).Norm2(); i != skip && d2 < bestD2 {
			best, bestD2 = i, d2
		}
	}
	return best
}

// ulpsAway steps x by n ulps, up for n > 0 and down for n < 0.
func ulpsAway(x float64, n int) float64 {
	dir := math.Inf(1)
	if n < 0 {
		dir, n = math.Inf(-1), -n
	}
	for range n {
		x = math.Nextafter(x, dir)
	}
	return x
}

// TestImageFreeRowsNeedTheirMargin builds the inputs on which an inner
// region that is too generous gives wrong forces, and checks every
// strategy's forces and energy against Reference. In a box centred on
// the origin:
//   - one atom lies 0.25 Å inside the cutoff margin of the x faces and
//     one 0.01 Å inside that of the y faces, each with a partner across
//     that face within the cutoff. A margin short of the cutoff by more
//     than 0.01 Å makes their rows image-free and drops those pairs.
//   - The same evaluation is repeated with the partner of an atom deep
//     inside left unwrapped, one box length out. A region that ignores
//     positions outside [Lo, Hi) makes the deep atom's row image-free
//     and drops that pair. On the 2-worker pool the unwrapped atom lies
//     in the last worker's chunk of the pack, and in a copy with the
//     deep pair moved to the front, in the first worker's chunk; so a
//     pack that reads any one worker's in-box flag instead of ANDing
//     them all fails one of the two.
func TestImageFreeRowsNeedTheirMargin(t *testing.T) {
	pot := potential.DefaultFe()
	rc := pot.Cutoff()
	bx := box.MustNew(vec.Splat(-10), vec.Splat(10))
	lo, hi := bx.Lo, bx.Hi
	wrapped := []vec.Vec3{
		{lo[0] + rc - 0.25, 0, 5}, // within the x margin
		{hi[0] - 0.05, 0, 5},      // 3.3 Å from atom 0 across the x faces
		{-5, lo[1] + rc - 0.01, 0},
		{-5, hi[1] - 0.005, 0}, // 3.495 Å from atom 2 across the y faces
		{0, 0, -4},             // deep inside
		{2.5, 0.3, -4},         // 2.52 Å from atom 4
	}
	unwrapped := slices.Clone(wrapped)
	unwrapped[5][0] += hi[0] - lo[0]
	// The deep atom keeps the lower index, so the pair stays in its row
	// of the half list.
	unwrappedFirst := slices.Concat(unwrapped[4:], unwrapped[:4])

	pool := strategy.MustNewPool(2)
	defer pool.Close()
	const skin = 0.5
	for _, c := range []struct {
		name string
		pos  []vec.Vec3
	}{{"wrapped", wrapped}, {"unwrapped", unwrapped}, {"unwrapped-first", unwrappedFirst}} {
		wantF, wantTotal, _, _ := Reference(pot, bx, c.pos)
		for i := range wantF {
			if wantF[i] == (vec.Vec3{}) {
				t.Fatalf("%s: atom %d feels no force; the case lost its pair", c.name, i)
			}
		}
		list, err := neighbor.Builder{Cutoff: rc, Skin: skin, Half: true}.Build(bx, c.pos)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := core.Decompose(bx, c.pos, core.Dim1, rc+skin)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := NewEngine(pot, bx)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range strategy.Kinds {
			red, err := strategy.New(strategy.Config{Kind: k, List: list, Pool: pool, Decomp: dec})
			if err != nil {
				t.Fatal(err)
			}
			f := make([]vec.Vec3, len(c.pos))
			if _, err := eng.Compute(red, c.pos, f); err != nil {
				t.Fatal(err)
			}
			for i := range f {
				if !f[i].ApproxEqual(wantF[i], 1e-9*(1+wantF[i].Norm())) {
					t.Errorf("%s/%v: F[%d] = %v, reference %v", c.name, k, i, f[i], wantF[i])
				}
			}
			total, _, _, err := eng.PotentialEnergy(red, c.pos)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(total-wantTotal) > 1e-9*(1+math.Abs(wantTotal)) {
				t.Errorf("%s/%v: energy %v, reference %v", c.name, k, total, wantTotal)
			}
		}
	}
}
