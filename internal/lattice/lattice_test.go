package lattice

import (
	"math"
	"testing"

	"sdcmd/internal/vec"
)

func TestKindStrings(t *testing.T) {
	if SC.String() != "sc" || BCC.String() != "bcc" || FCC.String() != "fcc" {
		t.Error("kind strings wrong")
	}
	if Kind(9).String() != "Kind(9)" {
		t.Error("unknown kind string wrong")
	}
}

func TestBuildCounts(t *testing.T) {
	for _, tc := range []struct {
		k          Kind
		nx, ny, nz int
		want       int
	}{
		{SC, 2, 3, 4, 24},
		{BCC, 3, 3, 3, 54},
		{FCC, 2, 2, 2, 32},
	} {
		c, err := Build(tc.k, tc.nx, tc.ny, tc.nz, 1.0)
		if err != nil {
			t.Fatalf("Build(%v): %v", tc.k, err)
		}
		if c.N() != tc.want {
			t.Errorf("Build(%v,%d,%d,%d) N = %d, want %d", tc.k, tc.nx, tc.ny, tc.nz, c.N(), tc.want)
		}
	}
}

func TestBuildRejectsBadArgs(t *testing.T) {
	if _, err := Build(BCC, 0, 1, 1, 1); err == nil {
		t.Error("zero count accepted")
	}
	if _, err := Build(BCC, 1, 1, 1, 0); err == nil {
		t.Error("zero a0 accepted")
	}
	if _, err := Build(BCC, 1, 1, 1, -2); err == nil {
		t.Error("negative a0 accepted")
	}
	if _, err := Build(Kind(42), 1, 1, 1, 1); err == nil {
		t.Error("unknown kind accepted")
	}
}

func TestMustBuildPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustBuild must panic on error")
		}
	}()
	MustBuild(BCC, -1, 1, 1, 1)
}

func TestAllAtomsInsideBox(t *testing.T) {
	for _, k := range []Kind{SC, BCC, FCC} {
		c := MustBuild(k, 3, 2, 4, 2.5)
		for i, p := range c.Pos {
			if !c.Box.Contains(p) {
				t.Errorf("%v atom %d outside box: %v", k, i, p)
			}
		}
	}
}

func TestNoDuplicateAtoms(t *testing.T) {
	c := MustBuild(BCC, 3, 3, 3, 2.8665)
	// Min distance in bcc is the nearest-neighbor distance a*sqrt(3)/2.
	minD2 := math.Inf(1)
	for i := 0; i < c.N(); i++ {
		for j := i + 1; j < c.N(); j++ {
			d2 := c.Box.Distance2(c.Pos[i], c.Pos[j])
			if d2 < minD2 {
				minD2 = d2
			}
		}
	}
	want := 2.8665 * math.Sqrt(3) / 2
	if math.Abs(math.Sqrt(minD2)-want) > 1e-9 {
		t.Errorf("bcc nearest neighbor distance = %g, want %g", math.Sqrt(minD2), want)
	}
}

func TestFCCNearestNeighbor(t *testing.T) {
	a := 3.52
	c := MustBuild(FCC, 3, 3, 3, a)
	minD2 := math.Inf(1)
	p0 := c.Pos[0]
	for j := 1; j < c.N(); j++ {
		if d2 := c.Box.Distance2(p0, c.Pos[j]); d2 < minD2 {
			minD2 = d2
		}
	}
	want := a / math.Sqrt(2)
	if math.Abs(math.Sqrt(minD2)-want) > 1e-9 {
		t.Errorf("fcc nearest neighbor = %g, want %g", math.Sqrt(minD2), want)
	}
}

func TestDensityMatchesLattice(t *testing.T) {
	// bcc: 2 atoms per a³.
	c := MustBuild(BCC, 4, 4, 4, 2.0)
	rho := float64(c.N()) / c.Box.Volume()
	if math.Abs(rho-2.0/8.0) > 1e-12 {
		t.Errorf("bcc density = %g, want 0.25", rho)
	}
}

func TestClone(t *testing.T) {
	c := MustBuild(SC, 2, 2, 2, 1)
	d := c.Clone()
	d.Pos[0] = vec.New(9, 9, 9)
	if c.Pos[0] == d.Pos[0] {
		t.Error("Clone must deep-copy positions")
	}
	if c.Box != d.Box {
		t.Error("Clone must copy box")
	}
}

func TestJitterDeterministicAndBounded(t *testing.T) {
	a := MustBuild(BCC, 3, 3, 3, 2.8665)
	b := a.Clone()
	orig := a.Clone()
	a.Jitter(0.05, 42)
	b.Jitter(0.05, 42)
	for i := range a.Pos {
		if a.Pos[i] != b.Pos[i] {
			t.Fatal("Jitter not deterministic for equal seeds")
		}
		d := a.Box.MinImage(a.Pos[i], orig.Pos[i]).Norm()
		if d > 0.05*math.Sqrt(3)+1e-12 {
			t.Fatalf("Jitter moved atom %d by %g > amp bound", i, d)
		}
		if !a.Box.Contains(a.Pos[i]) {
			t.Fatalf("Jitter pushed atom %d outside box", i)
		}
	}
	moved := 0
	for i := range a.Pos {
		if a.Pos[i] != orig.Pos[i] {
			moved++
		}
	}
	if moved == 0 {
		t.Error("Jitter with positive amplitude moved nothing")
	}
}

func TestJitterSeedsDiffer(t *testing.T) {
	a := MustBuild(SC, 3, 3, 3, 1)
	b := a.Clone()
	a.Jitter(0.1, 1)
	b.Jitter(0.1, 2)
	same := 0
	for i := range a.Pos {
		if a.Pos[i] == b.Pos[i] {
			same++
		}
	}
	if same == len(a.Pos) {
		t.Error("different seeds produced identical jitter")
	}
}

func TestPaperCaseSizes(t *testing.T) {
	// §III.B: 54 000 / 265 302 / 1 062 882 / 3 456 000 atoms.
	wants := map[Case]int{
		Small:  54000,
		Medium: 265302,
		Large3: 1062882,
		Large4: 3456000,
	}
	for c, want := range wants {
		if got := c.Atoms(); got != want {
			t.Errorf("%v atoms = %d, want %d", c, got, want)
		}
	}
}

func TestCaseStrings(t *testing.T) {
	for _, c := range Cases {
		if c.String() == "" {
			t.Errorf("case %d has empty name", int(c))
		}
	}
	if Case(99).String() != "Case(99)" {
		t.Error("unknown case string wrong")
	}
	if Case(99).CellsPerSide() != 0 {
		t.Error("unknown case cells wrong")
	}
}

func TestBuildSmallCase(t *testing.T) {
	if testing.Short() {
		t.Skip("54k atom build skipped in -short")
	}
	n := Small.CellsPerSide()
	c, err := Build(BCC, n, n, n, FeLatticeConstant)
	if err != nil {
		t.Fatal(err)
	}
	if c.N() != 54000 {
		t.Errorf("small case N = %d", c.N())
	}
}

func TestScaledCase(t *testing.T) {
	c, err := ScaledCase(6)
	if err != nil {
		t.Fatal(err)
	}
	if c.N() != 2*6*6*6 {
		t.Errorf("scaled case N = %d", c.N())
	}
	// Same density as the real cases.
	rho := float64(c.N()) / c.Box.Volume()
	want := 2.0 / (FeLatticeConstant * FeLatticeConstant * FeLatticeConstant)
	if math.Abs(rho-want) > 1e-12 {
		t.Errorf("scaled density = %g, want %g", rho, want)
	}
}
