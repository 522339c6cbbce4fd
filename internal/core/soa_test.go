package core

import (
	"math"
	"slices"
	"testing"

	"sdcmd/internal/box"
	"sdcmd/internal/vec"
)

func TestSoA3PackAtUnpack(t *testing.T) {
	src := []vec.Vec3{
		vec.New(1, 2, 3),
		vec.New(-4.5, 0, 7.25),
		vec.New(math.Pi, math.E, -1e-300),
	}
	var s SoA3
	s.Pack(src)
	if s.Len() != len(src) {
		t.Fatalf("Len = %d, want %d", s.Len(), len(src))
	}
	for i, v := range src {
		if s.At(i) != v {
			t.Errorf("At(%d) = %v, want %v", i, s.At(i), v)
		}
	}
	dst := make([]vec.Vec3, len(src))
	s.Unpack(dst)
	for i := range src {
		if dst[i] != src[i] {
			t.Errorf("Unpack[%d] = %v, want %v", i, dst[i], src[i])
		}
	}
}

func TestSoA3ResizeReusesCapacity(t *testing.T) {
	var s SoA3
	s.Pack(make([]vec.Vec3, 64))
	px := &s.X[0]
	s.Pack(make([]vec.Vec3, 32))
	if s.Len() != 32 {
		t.Fatalf("Len = %d after shrink, want 32", s.Len())
	}
	if &s.X[0] != px {
		t.Error("shrink reallocated the X slice")
	}
	s.Resize(128)
	if s.Len() != 128 || len(s.Y) != 128 || len(s.Z) != 128 {
		t.Fatalf("grow left lengths %d/%d/%d, want 128", len(s.X), len(s.Y), len(s.Z))
	}
}

// TestBlockReorderRebinsToIdentity pins the property the block reorder
// relies on: applying PartIndex as a NewToOld permutation and rebinning
// yields the identity partition, so every subdomain's Atoms(s) is the
// dense range [PStart[s], PStart[s+1]). Renumber, which the reorder
// calls instead of that rebin, must leave PStart, PartIndex and every
// atom's cell exactly as the rebin does, atoms outside the cell
// included.
func TestBlockReorderRebinsToIdentity(t *testing.T) {
	bx := box.MustNew(vec.Zero, vec.Splat(40))
	pos := randomPositions(400, bx, 7)
	for i := 0; i < len(pos); i += 9 {
		pos[i][i%3] += float64(i%5-2) * 40
	}
	dec, err := Decompose(bx, pos, Dim2, 3)
	if err != nil {
		t.Fatal(err)
	}
	renum, err := Decompose(bx, pos, Dim2, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Apply the partition as a reorder: new slot k holds old atom
	// PartIndex[k]. Rebinning the reordered positions must then yield
	// the identity partition.
	reordered := make([]vec.Vec3, len(pos))
	for k, old := range dec.PartIndex {
		reordered[k] = pos[old]
	}
	dec.Rebin(reordered)
	renum.Renumber()
	for k, i := range dec.PartIndex {
		if int(i) != k {
			t.Fatalf("PartIndex[%d] = %d after reorder", k, i)
		}
	}
	if err := dec.Verify(reordered); err != nil {
		t.Fatalf("Verify after reorder: %v", err)
	}
	if !slices.Equal(renum.PStart, dec.PStart) || !slices.Equal(renum.PartIndex, dec.PartIndex) {
		t.Fatal("Renumber's PStart/PartIndex differ from a rebin of the reordered positions")
	}
	for i := range reordered {
		if renum.CellOfAtom(i) != dec.CellOfAtom(i) {
			t.Fatalf("atom %d: Renumber put it in cell %d, the rebin in %d", i, renum.CellOfAtom(i), dec.CellOfAtom(i))
		}
	}
}
