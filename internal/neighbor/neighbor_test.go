package neighbor

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"sdcmd/internal/box"
	"sdcmd/internal/core"
	"sdcmd/internal/lattice"
	"sdcmd/internal/vec"
)

func randomPositions(n int, bx box.Box, seed int64) []vec.Vec3 {
	rng := rand.New(rand.NewSource(seed))
	l := bx.Lengths()
	ps := make([]vec.Vec3, n)
	for i := range ps {
		ps[i] = bx.Lo.Add(vec.New(rng.Float64()*l[0], rng.Float64()*l[1], rng.Float64()*l[2]))
	}
	return ps
}

func TestCellGridValidation(t *testing.T) {
	bx := box.MustNew(vec.Zero, vec.Splat(10))
	if _, err := NewCellGrid(bx, nil, 0); err == nil {
		t.Error("minCell=0 accepted")
	}
	if _, err := NewCellGrid(bx, nil, -1); err == nil {
		t.Error("minCell<0 accepted")
	}
}

func TestCellGridDims(t *testing.T) {
	bx := box.MustNew(vec.Zero, vec.New(10, 7, 2))
	g, err := NewCellGrid(bx, randomPositions(100, bx, 3), 2.0)
	if err != nil {
		t.Fatal(err)
	}
	if g.Counts != [3]int{5, 3, 1} {
		t.Errorf("Counts = %v", g.Counts)
	}
	if g.NumCells() != 15 {
		t.Errorf("NumCells = %d", g.NumCells())
	}
	// Fewer atoms than cells: the finest axis is halved until the grid
	// has no more cells than atoms.
	g, err = NewCellGrid(bx, randomPositions(4, bx, 3), 2.0)
	if err != nil {
		t.Fatal(err)
	}
	if g.Counts != [3]int{2, 2, 1} {
		t.Errorf("sparse Counts = %v, want 2×2×1", g.Counts)
	}
}

func TestCellGridBinningComplete(t *testing.T) {
	bx := box.MustNew(vec.Zero, vec.Splat(9))
	pos := randomPositions(500, bx, 7)
	g, err := NewCellGrid(bx, pos, 1.5) // 6×6×6
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int32]bool)
	for c := 0; c < g.NumCells(); c++ {
		for _, a := range g.Atoms(c) {
			if seen[a] {
				t.Fatalf("atom %d binned twice", a)
			}
			seen[a] = true
			// The atom must geometrically be in this cell.
			if g.CellOf(pos[a]) != c {
				t.Fatalf("atom %d in cell %d but CellOf says %d", a, c, g.CellOf(pos[a]))
			}
			if g.CellOfAtom(int(a)) != c {
				t.Fatalf("CellOfAtom mismatch for %d", a)
			}
		}
	}
	if len(seen) != len(pos) {
		t.Errorf("binned %d atoms of %d", len(seen), len(pos))
	}
}

// cellGrid builds the grid NewCellGrid picks for reach over enough
// atoms that no axis is widened, and checks its counts.
func cellGrid(t *testing.T, bx box.Box, reach float64, want [3]int) *core.Grid {
	t.Helper()
	g, err := NewCellGrid(bx, randomPositions(want[0]*want[1]*want[2], bx, 5), reach)
	if err != nil {
		t.Fatal(err)
	}
	if g.Counts != want {
		t.Fatalf("Counts = %v, want %v", g.Counts, want)
	}
	return g
}

func TestFlattenUnflattenRoundTrip(t *testing.T) {
	g := cellGrid(t, box.MustNew(vec.Zero, vec.New(12, 8, 4)), 1.0, [3]int{12, 8, 4})
	for c := 0; c < g.NumCells(); c++ {
		if got := g.Flatten(g.Unflatten(c)); got != c {
			t.Fatalf("round trip %d -> %v -> %d", c, g.Unflatten(c), got)
		}
	}
}

func TestForNeighborCellsCount(t *testing.T) {
	g := cellGrid(t, box.MustNew(vec.Zero, vec.Splat(10)), 2.0, [3]int{5, 5, 5}) // periodic
	count := 0
	g.ForNeighbors(g.Flatten([3]int{2, 2, 2}), func(_ int, s vec.Vec3) {
		count++
		if s != vec.Zero {
			t.Errorf("interior neighbor shifted by %v", s)
		}
	})
	if count != 27 {
		t.Errorf("interior neighborhood = %d cells, want 27", count)
	}
	// Periodic wrap at the corners still yields 27 distinct cells. A
	// wrapped cell's image sits one edge (10) beyond the face it was
	// reached across: the lowest corner sees cell 4 at -10, the
	// highest sees cell 0 at +10.
	for _, corner := range []int{0, 4} {
		seen := map[int]bool{}
		g.ForNeighbors(g.Flatten([3]int{corner, corner, corner}), func(f int, s vec.Vec3) {
			seen[f] = true
			co := g.Unflatten(f)
			for a := range co {
				want := 0.0
				if co[a] == 4-corner {
					want = 10
					if corner == 0 {
						want = -10
					}
				}
				if s[a] != want {
					t.Errorf("corner %d: cell %v axis %d shifted by %g, want %g", corner, co, a, s[a], want)
				}
			}
		})
		if len(seen) != 27 {
			t.Errorf("corner %d neighborhood = %d distinct cells, want 27", corner, len(seen))
		}
	}
}

func TestForNeighborCellsSmallGridNoDuplicates(t *testing.T) {
	g := cellGrid(t, box.MustNew(vec.Zero, vec.New(4, 4, 20)), 2.0, [3]int{2, 2, 10})
	visits := map[int]int{}
	g.ForNeighbors(g.Flatten([3]int{0, 0, 5}), func(f int, _ vec.Vec3) { visits[f]++ })
	for c, n := range visits {
		if n > 1 {
			t.Errorf("cell %d visited %d times", c, n)
		}
	}
	// 2 wrapped x-cells × 2 wrapped y-cells × 3 z-cells = 12 distinct.
	if len(visits) != 12 {
		t.Errorf("distinct neighbor cells = %d, want 12", len(visits))
	}
}

func TestForNeighborCellsOpenBoundary(t *testing.T) {
	bx := box.MustNew(vec.Zero, vec.Splat(10))
	bx.Periodic = [3]bool{false, true, true}
	g := cellGrid(t, bx, 2.0, [3]int{5, 5, 5})
	count := 0
	g.ForNeighbors(g.Flatten([3]int{0, 2, 2}), func(_ int, s vec.Vec3) {
		count++
		if s[0] != 0 {
			t.Errorf("open x axis shifted by %g", s[0])
		}
	})
	if count != 18 { // 2×3×3: no wrap across the open x face
		t.Errorf("open-boundary neighborhood = %d, want 18", count)
	}
}

// TestTinyReachMatchesBruteForce: a reach far below the interatomic
// spacing asks for ~10¹⁵ cells. The grid is widened to at most one cell
// per atom, so the build neither panics nor runs out of memory, and the
// lists still match the exact search.
func TestTinyReachMatchesBruteForce(t *testing.T) {
	bx := box.MustNew(vec.Zero, vec.Splat(12))
	for _, n := range []int{0, 5, 400} {
		pos := randomPositions(n, bx, 23)
		pos = append(pos, pos[:min(n, 3)]...) // coincident atoms are at distance 0 < reach
		for _, half := range []bool{false, true} {
			b := Builder{Cutoff: 1e-4, Half: half}
			got, err := b.Build(bx, pos)
			if err != nil {
				t.Fatal(err)
			}
			want, err := b.BuildBruteForce(bx, pos)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got.Index, want.Index) || !slices.Equal(got.Len, want.Len) || !slices.Equal(got.Neigh, want.Neigh) {
				t.Fatalf("n=%d half=%v: grid list differs from the exact search", n, half)
			}
		}
	}
}

func TestBuilderValidation(t *testing.T) {
	bx := box.MustNew(vec.Zero, vec.Splat(10))
	pos := randomPositions(10, bx, 1)
	if _, err := (Builder{Cutoff: 0}).Build(bx, pos); err == nil {
		t.Error("cutoff=0 accepted")
	}
	if _, err := (Builder{Cutoff: 1, Skin: -0.1}).Build(bx, pos); err == nil {
		t.Error("negative skin accepted")
	}
	if _, err := (Builder{Cutoff: 6}).Build(bx, pos); err == nil {
		t.Error("cutoff violating minimum image accepted")
	}
	if _, err := (Builder{Cutoff: 0}).BuildBruteForce(bx, pos); err == nil {
		t.Error("brute force cutoff=0 accepted")
	}
	if _, err := (Builder{Cutoff: 1, Skin: -1}).BuildBruteForce(bx, pos); err == nil {
		t.Error("brute force negative skin accepted")
	}
	if _, err := (Builder{Cutoff: 6}).BuildBruteForce(bx, pos); err == nil {
		t.Error("brute force minimum-image violation accepted")
	}
}

func TestCellListMatchesBruteForce(t *testing.T) {
	for _, half := range []bool{false, true} {
		for _, seed := range []int64{1, 2, 3} {
			bx := box.MustNew(vec.Zero, vec.New(12, 10, 11))
			pos := randomPositions(400, bx, seed)
			b := Builder{Cutoff: 2.0, Skin: 0.3, Half: half}
			cell, err := b.Build(bx, pos)
			if err != nil {
				t.Fatal(err)
			}
			brute, err := b.BuildBruteForce(bx, pos)
			if err != nil {
				t.Fatal(err)
			}
			cs, bs := cell.PairSet(), brute.PairSet()
			if len(cs) != len(bs) {
				t.Fatalf("half=%v seed=%d: %d pairs vs %d brute", half, seed, len(cs), len(bs))
			}
			for p := range bs {
				if _, ok := cs[p]; !ok {
					t.Fatalf("half=%v: missing pair %v", half, p)
				}
			}
			if err := cell.Validate(); err != nil {
				t.Fatalf("cell list invalid: %v", err)
			}
			if err := brute.Validate(); err != nil {
				t.Fatalf("brute list invalid: %v", err)
			}
		}
	}
}

func TestHalfListHalvesPairs(t *testing.T) {
	bx := box.MustNew(vec.Zero, vec.Splat(12))
	pos := randomPositions(300, bx, 9)
	half, err := Builder{Cutoff: 2, Half: true}.Build(bx, pos)
	if err != nil {
		t.Fatal(err)
	}
	full, err := Builder{Cutoff: 2, Half: false}.Build(bx, pos)
	if err != nil {
		t.Fatal(err)
	}
	if full.Pairs() != 2*half.Pairs() {
		t.Errorf("full pairs %d != 2×half %d", full.Pairs(), half.Pairs())
	}
}

func TestBCCNeighborCount(t *testing.T) {
	// bcc with rc between 1st and 2nd shell: exactly 8 neighbors each.
	cfg := lattice.MustBuild(lattice.BCC, 5, 5, 5, 2.8665)
	rc := 2.6 // 1st shell 2.4824, 2nd 2.8665
	l, err := Builder{Cutoff: rc, Half: false}.Build(cfg.Box, cfg.Pos)
	if err != nil {
		t.Fatal(err)
	}
	st := l.Stats()
	if st.MinLen != 8 || st.MaxLen != 8 {
		t.Errorf("bcc 1st shell count: min=%d max=%d, want 8", st.MinLen, st.MaxLen)
	}
	// rc between 2nd and 3rd shell: 8 + 6 = 14 neighbors.
	l2, err := Builder{Cutoff: 3.5, Half: false}.Build(cfg.Box, cfg.Pos)
	if err != nil {
		t.Fatal(err)
	}
	st2 := l2.Stats()
	if st2.MinLen != 14 || st2.MaxLen != 14 {
		t.Errorf("bcc 2-shell count: min=%d max=%d, want 14", st2.MinLen, st2.MaxLen)
	}
}

func TestToFull(t *testing.T) {
	bx := box.MustNew(vec.Zero, vec.Splat(12))
	pos := randomPositions(200, bx, 11)
	half, err := Builder{Cutoff: 2.2, Half: true}.Build(bx, pos)
	if err != nil {
		t.Fatal(err)
	}
	full := half.ToFull()
	if full.Half {
		t.Error("ToFull result still marked half")
	}
	if full.Pairs() != 2*half.Pairs() {
		t.Errorf("ToFull pairs %d, want %d", full.Pairs(), 2*half.Pairs())
	}
	if err := full.Validate(); err != nil {
		t.Fatalf("ToFull invalid: %v", err)
	}
	// Same unordered pair set.
	hs, fs := half.PairSet(), full.PairSet()
	if len(hs) != len(fs) {
		t.Fatalf("pair sets differ: %d vs %d", len(hs), len(fs))
	}
	for p := range hs {
		if _, ok := fs[p]; !ok {
			t.Fatalf("pair %v lost in ToFull", p)
		}
	}
	// ToFull of a full list is a deep copy.
	cp := full.ToFull()
	cp.Neigh[0] = -99
	if full.Neigh[0] == -99 {
		t.Error("ToFull of full list must deep-copy")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	bx := box.MustNew(vec.Zero, vec.Splat(12))
	pos := randomPositions(50, bx, 13)
	mk := func() *List {
		l, err := Builder{Cutoff: 3, Half: true}.Build(bx, pos)
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	l := mk()
	if l.Pairs() == 0 {
		t.Fatal("test needs some pairs")
	}

	c := mk()
	c.Neigh[0] = int32(999)
	if c.Validate() == nil {
		t.Error("out-of-range neighbor not caught")
	}

	c = mk()
	// Find an atom with a neighbor and make it list itself.
	for i := 0; i < c.N(); i++ {
		if c.Len[i] > 0 {
			c.Neigh[c.Index[i]] = int32(i)
			break
		}
	}
	if c.Validate() == nil {
		t.Error("self pair not caught")
	}

	c = mk()
	for i := 0; i < c.N(); i++ {
		if c.Len[i] >= 2 {
			c.Neigh[c.Index[i]+1] = c.Neigh[c.Index[i]]
			break
		}
	}
	if c.Validate() == nil {
		t.Error("duplicate neighbor not caught")
	}

	c = mk()
	c.Index[0] = -1
	if c.Validate() == nil {
		t.Error("negative offset not caught")
	}

	c = mk()
	c.Len = c.Len[:len(c.Len)-1]
	if c.Validate() == nil {
		t.Error("length mismatch not caught")
	}

	c = mk()
	// half list with j < i: give the last atom a small neighbor.
	last := c.N() - 1
	for i := last; i >= 0; i-- {
		if c.Len[i] > 0 && int(c.Neigh[c.Index[i]]) > 0 && i > 0 {
			c.Neigh[c.Index[i]] = 0
			_ = i
			break
		}
	}
	_ = c.Validate() // may or may not trip depending on which atom; no assertion
}

func TestSkinExpandsList(t *testing.T) {
	bx := box.MustNew(vec.Zero, vec.Splat(15))
	pos := randomPositions(400, bx, 17)
	noSkin, _ := Builder{Cutoff: 2}.Build(bx, pos)
	withSkin, _ := Builder{Cutoff: 2, Skin: 0.5}.Build(bx, pos)
	if withSkin.Pairs() <= noSkin.Pairs() {
		t.Errorf("skin did not expand list: %d vs %d", withSkin.Pairs(), noSkin.Pairs())
	}
	if withSkin.Skin != 0.5 || withSkin.Cutoff != 2 {
		t.Error("builder parameters not recorded")
	}
}

func TestSmallBoxFallsBackToBruteForce(t *testing.T) {
	// Box fits the cutoff (edges >= 2rc) but yields < 3 cells per axis,
	// forcing the brute-force fallback; results must still be exact.
	bx := box.MustNew(vec.Zero, vec.Splat(4.2))
	pos := randomPositions(60, bx, 19)
	b := Builder{Cutoff: 2.0, Half: true}
	got, err := b.Build(bx, pos)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := b.BuildBruteForce(bx, pos)
	gs, ws := got.PairSet(), want.PairSet()
	if len(gs) != len(ws) {
		t.Fatalf("fallback pairs %d, want %d", len(gs), len(ws))
	}
}

// TestToFullPairAccounting pins the symmetrization bookkeeping the RC
// strategy's cost model rides on: ToFull stores every half pair in both
// directions (the make([]int32, 2*l.Pairs()) sizing), Stats().Pairs
// agrees with Pairs() on both list shapes, and the CSR Len rows sum to
// the same total — so a reducer reporting PairWork() from either list
// counts exactly the visits one sweep performs.
func TestToFullPairAccounting(t *testing.T) {
	bx := box.MustNew(vec.Zero, vec.Splat(12))
	pos := randomPositions(250, bx, 11)
	half, err := Builder{Cutoff: 2.5, Skin: 0.5, Half: true}.Build(bx, pos)
	if err != nil {
		t.Fatal(err)
	}
	full := half.ToFull()
	if err := full.Validate(); err != nil {
		t.Fatalf("symmetrized list invalid: %v", err)
	}
	if full.Half {
		t.Error("ToFull result still marked half")
	}
	if full.Pairs() != 2*half.Pairs() {
		t.Errorf("symmetrized pairs %d, want 2x%d", full.Pairs(), half.Pairs())
	}
	if full.Cutoff != half.Cutoff || full.Skin != half.Skin {
		t.Errorf("ToFull dropped build parameters: %g/%g vs %g/%g",
			full.Cutoff, full.Skin, half.Cutoff, half.Skin)
	}
	for name, l := range map[string]*List{"half": half, "full": full} {
		st := l.Stats()
		if st.Pairs != l.Pairs() {
			t.Errorf("%s: Stats.Pairs %d != Pairs() %d", name, st.Pairs, l.Pairs())
		}
		if st.HalfList != l.Half {
			t.Errorf("%s: Stats.HalfList %v != Half %v", name, st.HalfList, l.Half)
		}
		sum := 0
		for _, n := range l.Len {
			sum += int(n)
		}
		if sum != l.Pairs() {
			t.Errorf("%s: Len rows sum to %d, Pairs() says %d", name, sum, l.Pairs())
		}
	}
	// Both shapes describe the same physical pair set.
	hs, fs := half.PairSet(), full.PairSet()
	if len(hs) != len(fs) {
		t.Fatalf("pair sets differ: half %d, full %d", len(hs), len(fs))
	}
	for p := range hs {
		if _, ok := fs[p]; !ok {
			t.Fatalf("pair %v missing from symmetrized list", p)
		}
	}
}

// TestToFullDeepCopy: both ToFull branches (symmetrize a half list,
// clone an already-full list) must return storage independent of the
// receiver — a shared backing array would let one consumer's mutation
// corrupt another's traversal.
func TestToFullDeepCopy(t *testing.T) {
	bx := box.MustNew(vec.Zero, vec.Splat(12))
	pos := randomPositions(120, bx, 13)
	for _, halfIn := range []bool{true, false} {
		src, err := Builder{Cutoff: 2.5, Half: halfIn}.Build(bx, pos)
		if err != nil {
			t.Fatal(err)
		}
		wantIndex := append([]int32(nil), src.Index...)
		wantLen := append([]int32(nil), src.Len...)
		wantNeigh := append([]int32(nil), src.Neigh...)
		cp := src.ToFull()
		for i := range cp.Index {
			cp.Index[i] = -7
		}
		for i := range cp.Len {
			cp.Len[i] = -7
		}
		for i := range cp.Neigh {
			cp.Neigh[i] = -7
		}
		for i := range src.Index {
			if src.Index[i] != wantIndex[i] || src.Len[i] != wantLen[i] {
				t.Fatalf("half=%v: mutating the copy changed the source CSR arrays", halfIn)
			}
		}
		for i := range src.Neigh {
			if src.Neigh[i] != wantNeigh[i] {
				t.Fatalf("half=%v: mutating the copy changed the source Neigh", halfIn)
			}
		}
	}
}

func TestStatsEmpty(t *testing.T) {
	l := &List{}
	st := l.Stats()
	if st.Atoms != 0 || st.Pairs != 0 || st.MinLen != 0 {
		t.Errorf("empty stats = %+v", st)
	}
}

func TestMaxDisplacement2(t *testing.T) {
	bx := box.MustNew(vec.Zero, vec.Splat(10))
	old := []vec.Vec3{{1, 1, 1}, {5, 5, 5}}
	cur := []vec.Vec3{{1, 1, 1.5}, {5, 5.2, 5}}
	got := MaxDisplacement2(bx, old, cur)
	if math.Abs(got-0.25) > 1e-12 {
		t.Errorf("MaxDisplacement2 = %g, want 0.25", got)
	}
	// Across the periodic boundary the displacement is the short way.
	old2 := []vec.Vec3{{0.1, 0, 0}}
	cur2 := []vec.Vec3{{9.9, 0, 0}}
	if d := MaxDisplacement2(bx, old2, cur2); math.Abs(d-0.04) > 1e-9 {
		t.Errorf("periodic displacement² = %g, want 0.04", d)
	}
}

func TestNeighborsSorted(t *testing.T) {
	bx := box.MustNew(vec.Zero, vec.Splat(12))
	pos := randomPositions(200, bx, 23)
	l, _ := Builder{Cutoff: 2.5, Half: true}.Build(bx, pos)
	for i := 0; i < l.N(); i++ {
		nb := l.Neighbors(i)
		for k := 1; k < len(nb); k++ {
			if nb[k-1] >= nb[k] {
				t.Fatalf("atom %d neighbors not sorted: %v", i, nb)
			}
		}
	}
}

// fakePool implements core.Parallelizer with plain goroutines.
type fakePool struct{ threads int }

func (p fakePool) Threads() int { return p.threads }

func (p fakePool) ParallelFor(n int, body func(start, end, tid int)) {
	var wg sync.WaitGroup
	chunk := (n + p.threads - 1) / p.threads
	for t := 0; t < p.threads; t++ {
		start := t * chunk
		end := start + chunk
		if end > n {
			end = n
		}
		if start >= end {
			continue
		}
		wg.Add(1)
		go func(s, e, tid int) {
			defer wg.Done()
			body(s, e, tid)
		}(start, end, t)
	}
	wg.Wait()
}

func TestBuildParallelMatchesSerial(t *testing.T) {
	bx := box.MustNew(vec.Zero, vec.New(14, 12, 13))
	pos := randomPositions(800, bx, 31)
	for _, half := range []bool{true, false} {
		b := Builder{Cutoff: 2.2, Skin: 0.4, Half: half}
		want, err := b.Build(bx, pos)
		if err != nil {
			t.Fatal(err)
		}
		got, err := b.BuildParallel(bx, pos, fakePool{threads: 4})
		if err != nil {
			t.Fatal(err)
		}
		if !sameCSR(got, want) {
			t.Fatalf("half=%v: pool-built CSR arrays differ from the no-pool build", half)
		}
	}
}

// sameCSR reports whether two lists have slice-equal CSR arrays.
func sameCSR(a, b *List) bool {
	return slices.Equal(a.Index, b.Index) && slices.Equal(a.Len, b.Len) && slices.Equal(a.Neigh, b.Neigh)
}

func TestBuildParallelNilPoolFallsBack(t *testing.T) {
	bx := box.MustNew(vec.Zero, vec.Splat(12))
	pos := randomPositions(100, bx, 3)
	b := Builder{Cutoff: 2, Half: true}
	got, err := b.BuildParallel(bx, pos, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := b.Build(bx, pos)
	if err != nil {
		t.Fatal(err)
	}
	if !sameCSR(got, want) {
		t.Error("nil-pool fallback differs")
	}
}

func TestBuildParallelValidation(t *testing.T) {
	bx := box.MustNew(vec.Zero, vec.Splat(12))
	pos := randomPositions(20, bx, 3)
	p := fakePool{threads: 2}
	if _, err := (Builder{Cutoff: 0}).BuildParallel(bx, pos, p); err == nil {
		t.Error("cutoff=0 accepted")
	}
	if _, err := (Builder{Cutoff: 2, Skin: -1}).BuildParallel(bx, pos, p); err == nil {
		t.Error("negative skin accepted")
	}
	if _, err := (Builder{Cutoff: 7}).BuildParallel(bx, pos, p); err == nil {
		t.Error("min-image violation accepted")
	}
	// Small box: brute-force fallback still correct.
	small := box.MustNew(vec.Zero, vec.Splat(4.2))
	spos := randomPositions(40, small, 5)
	got, err := (Builder{Cutoff: 2, Half: true}).BuildParallel(small, spos, p)
	if err != nil {
		t.Fatal(err)
	}
	want, err := (Builder{Cutoff: 2, Half: true}).BuildBruteForce(small, spos)
	if err != nil {
		t.Fatal(err)
	}
	if !sameCSR(got, want) {
		t.Error("small-box fallback differs")
	}
}

// TestRebuildErrorLeavesListUntouched: every input Rebuild rejects is
// rejected before the outgoing list's arrays are written.
func TestRebuildErrorLeavesListUntouched(t *testing.T) {
	bx := box.MustNew(vec.Zero, vec.Splat(12))
	pos := randomPositions(300, bx, 3)
	old, err := Builder{Cutoff: 2, Half: true}.Build(bx, pos)
	if err != nil {
		t.Fatal(err)
	}
	snap := *old
	snap.Index, snap.Len, snap.Neigh = slices.Clone(old.Index), slices.Clone(old.Len), slices.Clone(old.Neigh)
	moved := randomPositions(300, bx, 4)
	for _, b := range []Builder{{Cutoff: 0}, {Cutoff: 2, Skin: -1}, {Cutoff: 7}} {
		if _, err := b.Rebuild(old, bx, moved, fakePool{threads: 2}); err == nil {
			t.Fatalf("%+v accepted", b)
		}
		if old.Half != snap.Half || old.Cutoff != snap.Cutoff || old.Skin != snap.Skin || !sameCSR(old, &snap) {
			t.Fatalf("%+v: rejected rebuild wrote the outgoing list", b)
		}
	}
}

// TestBuildAtUpperFace: on a box whose Lo is not 0, Box.Wrap can round
// a coordinate within an ulp of Hi down to about Lo, and a coordinate
// at Hi to just below Lo, which a second Wrap sends back to just below
// Hi. The build must still list such an atom's neighbors at their true
// image, as BuildBruteForce does: the grid bins an atom inside the cell
// by its own coordinate, and the wrapped copy of an out-of-cell input
// lies inside the cell.
func TestBuildAtUpperFace(t *testing.T) {
	wrapX := func(bx box.Box, x float64) float64 { return bx.Wrap(vec.Splat(x))[0] }
	for _, c := range []struct {
		name string
		face func(bx box.Box) float64 // x of the face atom
		bad  func(bx box.Box, x float64) bool
	}{
		{"inside, an ulp below Hi",
			func(bx box.Box) float64 { return math.Nextafter(bx.Hi[0], math.Inf(-1)) },
			func(bx box.Box, x float64) bool { return wrapX(bx, x) < bx.Hi[0]-1 }},
		{"outside, at Hi",
			func(bx box.Box) float64 { return bx.Hi[0] },
			func(bx box.Box, x float64) bool {
				w := wrapX(bx, x)
				return w < bx.Lo[0] && wrapX(bx, w) > bx.Hi[0]-1
			}},
	} {
		var bx box.Box
		found := false
		for k := 1; k < 100000 && !found; k++ {
			lo := 0.37*float64(k%400) - 60
			bx = box.MustNew(vec.Splat(lo), vec.Splat(lo+20+0.013*float64(k/400)))
			found = c.bad(bx, c.face(bx))
		}
		if !found {
			t.Fatalf("%s: no box found where Wrap misplaces the face atom", c.name)
		}
		pos := randomPositions(120, bx, 9)
		mid := bx.Center()
		pos[0] = vec.New(c.face(bx), mid[1], mid[2])
		pos[1] = vec.New(bx.Hi[0]-1, mid[1], mid[2])
		wrapped := append([]vec.Vec3(nil), pos...)
		bx.WrapAll(wrapped)
		b := Builder{Cutoff: 2.5, Half: true}
		want, err := b.BuildBruteForce(bx, wrapped)
		if err != nil {
			t.Fatal(err)
		}
		got, err := b.Build(bx, pos)
		if err != nil {
			t.Fatal(err)
		}
		if !sameCSR(got, want) {
			t.Errorf("%s, %v: %d pairs, BuildBruteForce %d", c.name, bx, got.Pairs(), want.Pairs())
		}
	}
}
