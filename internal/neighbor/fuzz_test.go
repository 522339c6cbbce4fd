package neighbor

import (
	"math"
	"math/rand"
	"testing"

	"sdcmd/internal/box"
	"sdcmd/internal/vec"
)

// FuzzBuildMatchesBruteForce checks the one-pass shifted-stencil search
// against the O(N²) oracle over generated boxes. The raw inputs map
// onto 0–400 atoms, three edges of 2–8 reaches each on a box with a
// random lower corner, a periodic flag per axis (bits 0–2 of flags), a
// 1–4 Å cutoff, a 0–0.8 Å skin, half or full lists, and 1–4 workers. A
// share of the coordinates (faces/256) sits on a face of the box: at
// Lo, at Hi or an ulp below Hi. On periodic axes a share of the
// coordinates (displaced/256) is then moved 1–2 edges outside the
// primary cell. About one atom in 16 coincides with an earlier one.
// With bit 3 of flags set, the atoms are then numbered in the order of
// their NewCellGrid cells, as md's cell order numbers them, so the
// search skips whole stencil cells and most rows come out sorted.
// For every input:
//   - Build, BuildParallel, Rebuild and RebuildBinned (on a grid
//     NewCellGrid binned) return an error exactly when BuildBruteForce
//     does;
//   - otherwise their Index, Len and Neigh are slice-equal to
//     BuildBruteForce's on the wrapped positions, and Validate passes.
//
// Rebuild reuses the arrays of a stale list of the other kind (full
// for a half build and vice versa) over half the atoms.
func FuzzBuildMatchesBruteForce(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, atoms uint16, ex, ey, ez, flags uint8, cutoff, skin uint16, half bool, threads, displaced, faces uint8) {
		n := int(atoms) % 401
		cut := 1 + 3*float64(cutoff)/math.MaxUint16
		sk := 0.8 * float64(skin) / math.MaxUint16
		reach := cut + sk
		edge := func(e uint8) float64 { return reach * (2 + 6*float64(e)/math.MaxUint8) }
		workers := 1 + int(threads)%4

		rng := rand.New(rand.NewSource(seed))
		lo := vec.New(rng.Float64()*10-5, rng.Float64()*10-5, rng.Float64()*10-5)
		bx := box.MustNew(lo, lo.Add(vec.New(edge(ex), edge(ey), edge(ez))))
		for a := range bx.Periodic {
			bx.Periodic[a] = flags>>a&1 == 1
		}
		l := bx.Lengths()
		pos := make([]vec.Vec3, n)
		for i := range pos {
			for a := range pos[i] {
				pos[i][a] = bx.Lo[a] + rng.Float64()*l[a]
				if rng.Intn(256) < int(faces) {
					pos[i][a] = [...]float64{bx.Lo[a], bx.Hi[a], math.Nextafter(bx.Hi[a], bx.Lo[a])}[rng.Intn(3)]
				}
				if bx.Periodic[a] && rng.Intn(256) < int(displaced) {
					pos[i][a] += float64(1+rng.Intn(2)) * float64(2*rng.Intn(2)-1) * l[a]
				}
			}
			if i > 0 && rng.Intn(16) == 0 {
				pos[i] = pos[rng.Intn(i)]
			}
		}
		if flags>>3&1 == 1 {
			g, err := NewCellGrid(bx, pos, reach)
			if err != nil {
				t.Fatal(err)
			}
			sorted := make([]vec.Vec3, n)
			for k, i := range g.PartIndex {
				sorted[k] = pos[i]
			}
			pos = sorted
		}
		wrapped := append([]vec.Vec3(nil), pos...)
		bx.WrapAll(wrapped)

		b := Builder{Cutoff: cut, Skin: sk, Half: half}
		want, wantErr := b.BuildBruteForce(bx, wrapped)
		check := func(name string, got *List, err error) {
			t.Helper()
			if (err != nil) != (wantErr != nil) {
				t.Fatalf("%s: error %v, BuildBruteForce's %v", name, err, wantErr)
			}
			if err != nil {
				return
			}
			if err := got.Validate(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !sameCSR(got, want) {
				t.Fatalf("%s on %v, %d atoms, reach %g, half=%v, %d workers: %d pairs, BuildBruteForce %d",
					name, bx, n, reach, half, workers, got.Pairs(), want.Pairs())
			}
		}
		got, err := b.Build(bx, pos)
		check("Build", got, err)
		got, err = b.BuildParallel(bx, pos, fakePool{threads: workers})
		check("BuildParallel", got, err)
		stale, _ := Builder{Cutoff: cut, Skin: sk, Half: !half}.BuildBruteForce(bx, wrapped[:n/2])
		got, err = b.Rebuild(stale, bx, pos, fakePool{threads: workers})
		check("Rebuild", got, err)
		g, err := NewCellGrid(bx, pos, reach)
		if err != nil {
			t.Fatal(err)
		}
		got, err = b.RebuildBinned(nil, g, pos, fakePool{threads: workers})
		check("RebuildBinned", got, err)
	})
}
