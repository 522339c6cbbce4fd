package reorder

import (
	"math/rand"
	"testing"
	"testing/quick"

	"sdcmd/internal/box"
	"sdcmd/internal/lattice"
	"sdcmd/internal/neighbor"
	"sdcmd/internal/vec"
)

func TestIdentity(t *testing.T) {
	p := Identity(5)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	src := []float64{10, 20, 30, 40, 50}
	got := p.ApplyFloat64(src)
	for i := range src {
		if got[i] != src[i] {
			t.Errorf("identity moved element %d", i)
		}
	}
}

func TestFromNewToOldRejectsBadMaps(t *testing.T) {
	if _, err := FromNewToOld([]int32{0, 0, 1}); err == nil {
		t.Error("duplicate accepted")
	}
	if _, err := FromNewToOld([]int32{0, 5}); err == nil {
		t.Error("out of range accepted")
	}
	if _, err := FromNewToOld([]int32{0, -1}); err == nil {
		t.Error("negative accepted")
	}
	if _, err := FromNewToOld([]int32{2, 0, 1}); err != nil {
		t.Errorf("valid map rejected: %v", err)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	p := Identity(4)
	p.OldToNew[1] = 2
	if p.Validate() == nil {
		t.Error("broken inverse not caught")
	}
	q := Identity(4)
	q.NewToOld = q.NewToOld[:3]
	if q.Validate() == nil {
		t.Error("length mismatch not caught")
	}
	r := Identity(4)
	r.NewToOld[0] = 9
	if r.Validate() == nil {
		t.Error("out-of-range not caught")
	}
}

func TestScrambleIsBijection(t *testing.T) {
	f := func(seed int64) bool {
		p := Scramble(64, seed)
		return p.Validate() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestScrambleDeterministic(t *testing.T) {
	a := Scramble(100, 42)
	b := Scramble(100, 42)
	for i := range a.NewToOld {
		if a.NewToOld[i] != b.NewToOld[i] {
			t.Fatal("Scramble not deterministic")
		}
	}
}

// TestScrambleGolden pins the exact permutation for a fixed seed: the
// scrambled baselines in committed bench results (BENCH_reorder.json)
// are reproducible only if Scramble is a pure
// function of its seed, never of process-global randomness. If this
// test breaks, the committed baselines no longer describe the same
// workload.
func TestScrambleGolden(t *testing.T) {
	want := []int32{12, 7, 11, 15, 1, 6, 10, 9, 3, 13, 4, 14, 2, 8, 0, 5}
	got := Scramble(16, 42).NewToOld
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Scramble(16, 42) drifted: got %v, want %v", got, want)
		}
	}
	// ScrambleRand with the same locally seeded source is the same
	// permutation — Scramble is a pure wrapper.
	got2 := ScrambleRand(16, rand.New(rand.NewSource(42))).NewToOld
	for i := range want {
		if got2[i] != want[i] {
			t.Fatalf("ScrambleRand diverges from Scramble: got %v, want %v", got2, want)
		}
	}
}

func TestApplyUnapplyRoundTrip(t *testing.T) {
	p := Scramble(50, 7)
	rng := rand.New(rand.NewSource(1))
	src := make([]vec.Vec3, 50)
	for i := range src {
		src[i] = vec.New(rng.Float64(), rng.Float64(), rng.Float64())
	}
	back := p.UnapplyVec3(p.ApplyVec3(src))
	for i := range src {
		if back[i] != src[i] {
			t.Fatalf("round trip broke element %d", i)
		}
	}
}

func TestApplyPanicsOnLengthMismatch(t *testing.T) {
	p := Identity(3)
	for name, fn := range map[string]func(){
		"ApplyVec3":    func() { p.ApplyVec3(make([]vec.Vec3, 4)) },
		"ApplyFloat64": func() { p.ApplyFloat64(make([]float64, 2)) },
		"UnapplyVec3":  func() { p.UnapplyVec3(make([]vec.Vec3, 4)) },
		"RemapList":    func() { p.RemapList(&neighbor.List{Index: make([]int32, 4), Len: make([]int32, 4)}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic on mismatch", name)
				}
			}()
			fn()
		}()
	}
}

func buildTestSystem(t *testing.T) (box.Box, []vec.Vec3, *neighbor.List) {
	t.Helper()
	cfg := lattice.MustBuild(lattice.BCC, 4, 4, 4, 2.8665)
	cfg.Jitter(0.1, 3)
	l, err := neighbor.Builder{Cutoff: 3.5, Half: true}.Build(cfg.Box, cfg.Pos)
	if err != nil {
		t.Fatal(err)
	}
	return cfg.Box, cfg.Pos, l
}

func TestRemapListPreservesGeometry(t *testing.T) {
	bx, pos, l := buildTestSystem(t)
	p := Scramble(len(pos), 99)
	newPos := p.ApplyVec3(pos)
	newList := p.RemapList(l)

	if err := newList.Validate(); err != nil {
		t.Fatalf("remapped list invalid: %v", err)
	}
	if newList.Pairs() != l.Pairs() {
		t.Fatalf("pair count changed: %d vs %d", newList.Pairs(), l.Pairs())
	}
	// The remapped list on remapped positions must describe the same
	// geometric pair set: rebuild from scratch and compare.
	want, err := neighbor.Builder{Cutoff: 3.5, Half: true}.Build(bx, newPos)
	if err != nil {
		t.Fatal(err)
	}
	ws, gs := want.PairSet(), newList.PairSet()
	if len(ws) != len(gs) {
		t.Fatalf("pair sets differ in size: %d vs %d", len(ws), len(gs))
	}
	for pr := range ws {
		if _, ok := gs[pr]; !ok {
			t.Fatalf("pair %v missing after remap", pr)
		}
	}
}

func TestRemapFullList(t *testing.T) {
	_, pos, half := buildTestSystem(t)
	full := half.ToFull()
	p := Scramble(len(pos), 5)
	remapped := p.RemapList(full)
	if remapped.Half {
		t.Error("full list became half")
	}
	if err := remapped.Validate(); err != nil {
		t.Fatalf("remapped full list invalid: %v", err)
	}
	if remapped.Pairs() != full.Pairs() {
		t.Errorf("full pair count changed: %d vs %d", remapped.Pairs(), full.Pairs())
	}
}

func TestSpatialOrderImprovesLocality(t *testing.T) {
	// Start from a scrambled system; spatial ordering must reduce the
	// mean index distance between neighbors.
	bx, pos, _ := buildTestSystem(t)
	scr := Scramble(len(pos), 123)
	scrPos := scr.ApplyVec3(pos)
	scrList, err := neighbor.Builder{Cutoff: 3.5, Half: true}.Build(bx, scrPos)
	if err != nil {
		t.Fatal(err)
	}

	grid, err := neighbor.NewCellGrid(bx, scrPos, 3.5)
	if err != nil {
		t.Fatal(err)
	}
	sp := SpatialOrder(grid)
	if err := sp.Validate(); err != nil {
		t.Fatal(err)
	}
	ordList := sp.RemapList(scrList)

	before := LocalityScore(scrList)
	after := LocalityScore(ordList)
	if after >= before {
		t.Errorf("spatial order did not improve locality: %g -> %g", before, after)
	}
	if after > before/2 {
		t.Logf("note: modest locality gain %g -> %g", before, after)
	}
}

func TestLocalityScoreEmpty(t *testing.T) {
	if LocalityScore(&neighbor.List{}) != 0 {
		t.Error("empty list locality must be 0")
	}
}

func TestSpatialOrderIsBijection(t *testing.T) {
	bx, pos, _ := buildTestSystem(t)
	grid, err := neighbor.NewCellGrid(bx, pos, 3.5)
	if err != nil {
		t.Fatal(err)
	}
	p := SpatialOrder(grid)
	if p.N() != len(pos) {
		t.Fatalf("permutation size %d != %d atoms", p.N(), len(pos))
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRemapHalfListKeepsOrderingInvariant(t *testing.T) {
	_, pos, l := buildTestSystem(t)
	p := Scramble(len(pos), 321)
	nl := p.RemapList(l)
	for i := 0; i < nl.N(); i++ {
		for _, j := range nl.Neighbors(i) {
			if int(j) <= i {
				t.Fatalf("half-list invariant broken: atom %d lists %d", i, j)
			}
		}
	}
}
