package core

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"sdcmd/internal/box"
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

func TestDimProperties(t *testing.T) {
	if Dim1.Colors() != 2 || Dim2.Colors() != 4 || Dim3.Colors() != 8 {
		t.Error("color counts wrong")
	}
	if Dim(5).Colors() != 0 || Dim(5).Axes() != nil {
		t.Error("invalid dim must report zero colors, nil axes")
	}
	if Dim1.String() != "1D" || Dim2.String() != "2D" || Dim3.String() != "3D" {
		t.Error("dim strings wrong")
	}
	if Dim(7).String() != "Dim(7)" {
		t.Error("invalid dim string wrong")
	}
	if len(Dim1.Axes()) != 1 || len(Dim2.Axes()) != 2 || len(Dim3.Axes()) != 3 {
		t.Error("axes counts wrong")
	}
}

func TestDecomposeValidation(t *testing.T) {
	bx := box.MustNew(vec.Zero, vec.Splat(40))
	pos := randomPositions(100, bx, 1)
	if _, err := Decompose(bx, pos, Dim(9), 3); err == nil {
		t.Error("invalid dim accepted")
	}
	if _, err := Decompose(bx, pos, Dim2, 0); err == nil {
		t.Error("zero reach accepted")
	}
	if _, err := Decompose(bx, pos, Dim2, -1); err == nil {
		t.Error("negative reach accepted")
	}
}

func TestDecomposeTooSmall(t *testing.T) {
	// Edge 10, reach 3: floor(10/6) = 1 -> cannot split evenly.
	bx := box.MustNew(vec.Zero, vec.Splat(10))
	pos := randomPositions(50, bx, 2)
	_, err := Decompose(bx, pos, Dim1, 3)
	if !errors.Is(err, ErrTooFewSubdomains) {
		t.Errorf("want ErrTooFewSubdomains, got %v", err)
	}
}

func TestDecomposeTooManySubdomains(t *testing.T) {
	// A tiny reach must fail with the grid cap's error instead of
	// allocating its subdomains: in the 86 Å small-case box, 3D at
	// reach 0.336 needs 128³ = 2 097 152 > MaxCells, while 2D needs
	// 128² and stays legal.
	smallEdge := float64(lattice.Small.CellsPerSide()) * lattice.FeLatticeConstant
	bx := box.MustNew(vec.Zero, vec.Splat(smallEdge))
	reach := smallEdge / 256
	if _, err := Decompose(bx, nil, Dim3, reach); !errors.Is(err, ErrTooManyCells) {
		t.Errorf("3D: got %v, want ErrTooManyCells", err)
	}
	dec, err := Decompose(bx, nil, Dim2, reach)
	if err != nil {
		t.Fatalf("2D: %v", err)
	}
	if dec.Counts != [3]int{128, 128, 1} {
		t.Errorf("2D counts %v, want 128×128×1", dec.Counts)
	}
}

func TestDecomposeCountsEvenAndEdgeBound(t *testing.T) {
	bx := box.MustNew(vec.Zero, vec.New(50, 37, 29))
	pos := randomPositions(500, bx, 3)
	for _, d := range []Dim{Dim1, Dim2, Dim3} {
		dec, err := Decompose(bx, pos, d, 3)
		if err != nil {
			t.Fatalf("%v: %v", d, err)
		}
		for _, a := range d.Axes() {
			if dec.Counts[a]%2 != 0 || dec.Counts[a] < 2 {
				t.Errorf("%v axis %v count %d", d, a, dec.Counts[a])
			}
		}
		edges := dec.EdgeLengths()
		for _, a := range d.Axes() {
			if edges[a] < 6 {
				t.Errorf("%v axis %v edge %g < 2*reach", d, a, edges[a])
			}
		}
		if err := dec.Verify(pos); err != nil {
			t.Errorf("%v: Verify: %v", d, err)
		}
	}
}

func TestEqualSubdomainsPerColor(t *testing.T) {
	bx := box.MustNew(vec.Zero, vec.Splat(60))
	pos := randomPositions(300, bx, 4)
	for _, d := range []Dim{Dim1, Dim2, Dim3} {
		dec, err := Decompose(bx, pos, d, 3)
		if err != nil {
			t.Fatal(err)
		}
		per := dec.SubdomainsPerColor()
		for c := 0; c < dec.NumColors(); c++ {
			if len(dec.ByColor[c]) != per {
				t.Errorf("%v color %d: %d subdomains, want %d", d, c, len(dec.ByColor[c]), per)
			}
		}
		if per*dec.NumColors() != dec.NumSubdomains() {
			t.Errorf("%v: per-color %d × colors %d != total %d", d, per, dec.NumColors(), dec.NumSubdomains())
		}
	}
}

func TestNoAdjacentSameColor(t *testing.T) {
	bx := box.MustNew(vec.Zero, vec.New(61, 47, 83))
	pos := randomPositions(200, bx, 5)
	for _, d := range []Dim{Dim1, Dim2, Dim3} {
		dec, err := Decompose(bx, pos, d, 3.1)
		if err != nil {
			t.Fatal(err)
		}
		ns := dec.NumSubdomains()
		for s := 0; s < ns; s++ {
			dec.ForNeighbors(s, func(o int, _ vec.Vec3) {
				if o != s && dec.ColorOf[s] == dec.ColorOf[o] {
					t.Fatalf("%v: adjacent subdomains %d,%d share color %d", d, s, o, dec.ColorOf[s])
				}
			})
		}
	}
}

func TestColoringLegalityProperty(t *testing.T) {
	// E5 property test: random box shapes and reaches always yield a
	// legal coloring or a clean ErrTooFewSubdomains.
	f := func(lx, ly, lz, rc uint8) bool {
		l := vec.New(20+float64(lx%200), 20+float64(ly%200), 20+float64(lz%200))
		reach := 2 + float64(rc%8)
		bx := box.MustNew(vec.Zero, l)
		pos := randomPositions(64, bx, int64(lx)+int64(ly)<<8)
		for _, d := range []Dim{Dim1, Dim2, Dim3} {
			dec, err := Decompose(bx, pos, d, reach)
			if err != nil {
				if errors.Is(err, ErrTooFewSubdomains) {
					continue
				}
				return false
			}
			if dec.Verify(pos) != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestPartitionCoversAllAtoms(t *testing.T) {
	bx := box.MustNew(vec.Zero, vec.Splat(55))
	pos := randomPositions(1000, bx, 6)
	dec, err := Decompose(bx, pos, Dim2, 3)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for s := 0; s < dec.NumSubdomains(); s++ {
		total += dec.AtomCount(s)
	}
	if total != len(pos) {
		t.Errorf("partition holds %d atoms, want %d", total, len(pos))
	}
	if len(dec.PStart) != dec.NumSubdomains()+1 {
		t.Errorf("PStart length %d", len(dec.PStart))
	}
	if int(dec.PStart[dec.NumSubdomains()]) != len(pos) {
		t.Error("PStart[last] must equal atom count")
	}
}

func TestRebinFollowsAtoms(t *testing.T) {
	bx := box.MustNew(vec.Zero, vec.Splat(48))
	pos := randomPositions(400, bx, 7)
	dec, err := Decompose(bx, pos, Dim3, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Move every atom and rebin; Verify must still pass.
	rng := rand.New(rand.NewSource(8))
	for i := range pos {
		pos[i] = bx.Wrap(pos[i].Add(vec.New(rng.Float64()*10-5, rng.Float64()*10-5, rng.Float64()*10-5)))
	}
	dec.Rebin(pos)
	if err := dec.Verify(pos); err != nil {
		t.Fatalf("Verify after rebin: %v", err)
	}
}

// TestSubdomainOfConsistency checks the grid Decompose builds on a box
// not anchored at the origin: a complete, stable partition in the
// subdomain CellOf names, a Flatten/Unflatten round trip, and CellOf in
// range for every atom.
func TestSubdomainOfConsistency(t *testing.T) {
	bx := box.MustNew(vec.New(-10, -10, -10), vec.New(38, 38, 38))
	pos := randomPositions(300, bx, 9)
	dec, err := Decompose(bx, pos, Dim2, 3)
	if err != nil {
		t.Fatal(err)
	}
	checkBinning(t, &dec.Grid, pos)
	for s := 0; s < dec.NumSubdomains(); s++ {
		if got := dec.Flatten(dec.Unflatten(s)); got != s {
			t.Fatalf("Flatten/Unflatten round trip: %d -> %d", s, got)
		}
	}
	for _, p := range pos {
		s := dec.CellOf(p)
		if s < 0 || s >= dec.NumSubdomains() {
			t.Fatalf("CellOf(%v) = %d out of range", p, s)
		}
	}
}

func TestColorAtomCountsBalance(t *testing.T) {
	// A uniform lattice must distribute atoms almost evenly per color.
	cfg := lattice.MustBuild(lattice.BCC, 10, 10, 10, 2.8665)
	dec, err := Decompose(cfg.Box, cfg.Pos, Dim2, 3.5)
	if err != nil {
		t.Fatal(err)
	}
	counts := dec.ColorAtomCounts()
	mean := float64(cfg.N()) / float64(len(counts))
	for c, n := range counts {
		if float64(n) < 0.8*mean || float64(n) > 1.2*mean {
			t.Errorf("color %d holds %d atoms, mean %g: imbalance", c, n, mean)
		}
	}
}

func TestPaperSubdomainCountsQuote(t *testing.T) {
	// §II.B: "there are 340 subdomains with each color in medium test
	// case, and there are nearly 5000 subdomains with each color in
	// large test case". With our reach (3.5 Å + 0.5 skin = 4.0) the
	// counts differ numerically but the qualitative claim — far more
	// subdomains per color than cores — must hold.
	for _, c := range []lattice.Case{lattice.Medium, lattice.Large3} {
		n := c.CellsPerSide()
		edge := float64(n) * lattice.FeLatticeConstant
		bx := box.MustNew(vec.Zero, vec.Splat(edge))
		dec, err := Decompose(bx, nil, Dim2, 4.0)
		if err != nil {
			t.Fatal(err)
		}
		if dec.SubdomainsPerColor() < 16 {
			t.Errorf("%v: only %d subdomains per color — under core count", c, dec.SubdomainsPerColor())
		}
	}
}

func TestVerifyCatchesCorruption(t *testing.T) {
	bx := box.MustNew(vec.Zero, vec.Splat(48))
	pos := randomPositions(100, bx, 11)
	mk := func() *Decomposition {
		d, err := Decompose(bx, pos, Dim2, 3)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}

	d := mk()
	d.ColorOf[0] = d.ColorOf[1] // make neighbors share color
	// Rebuild ByColor consistently so the per-color balance check
	// doesn't fire first.
	if err := d.Verify(pos); err == nil {
		t.Error("same-color adjacency not caught")
	}

	d = mk()
	d.PartIndex = d.PartIndex[:len(d.PartIndex)-1]
	if err := d.Verify(pos); err == nil {
		t.Error("short partition not caught")
	}

	d = mk()
	if len(d.Atoms(d.CellOf(pos[0]))) > 0 {
		// Duplicate an atom: overwrite some other entry with atom 0's id.
		d.PartIndex[len(d.PartIndex)-1] = d.PartIndex[0]
		if err := d.Verify(pos); err == nil {
			t.Error("duplicated atom not caught")
		}
	}

	d = mk()
	d.Counts[0]++ // breaks evenness; Verify checks counts first
	if err := d.Verify(pos); err == nil {
		t.Error("odd count not caught")
	}

	d = mk()
	d.Reach *= 100
	if err := d.Verify(pos); err == nil {
		t.Error("edge < 2*reach not caught")
	}
}

func TestString(t *testing.T) {
	bx := box.MustNew(vec.Zero, vec.Splat(48))
	dec, err := Decompose(bx, nil, Dim2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if dec.String() == "" {
		t.Error("empty String")
	}
}

func TestOneDimRestrictionMatchesTable1Blanks(t *testing.T) {
	// Table 1 leaves 1D SDC blank on the small case at 12/16 threads:
	// the per-color parallelism bound falls below the thread count.
	smallEdge := float64(lattice.Small.CellsPerSide()) * lattice.FeLatticeConstant // 86.0 Å
	bx := box.MustNew(vec.Zero, vec.Splat(smallEdge))
	dec, err := Decompose(bx, nil, Dim1, 4.0)
	if err != nil {
		t.Fatal(err)
	}
	// 86/8 = 10 -> 10 subdomains, 5 per color: enough for 4 threads,
	// not for 12 or 16.
	per := dec.SubdomainsPerColor()
	if per >= 12 {
		t.Errorf("1D small case per-color %d — expected the Table 1 restriction (< 12)", per)
	}
	if per < 2 {
		t.Errorf("1D small case per-color %d — too restrictive", per)
	}
}
