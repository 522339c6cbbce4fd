package core

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"sdcmd/internal/box"
	"sdcmd/internal/vec"
)

// checkBinning asserts the CSR partition of g covers every atom exactly
// once, in ascending order within each cell, in the cell CellOf names.
func checkBinning(t *testing.T, g *Grid, pos []vec.Vec3) {
	t.Helper()
	nc := g.NumCells()
	if len(g.PStart) != nc+1 || int(g.PStart[nc]) != len(pos) {
		t.Fatalf("PStart has %d entries ending at %d, want %d ending at %d atoms",
			len(g.PStart), g.PStart[len(g.PStart)-1], nc+1, len(pos))
	}
	seen := make([]bool, len(pos))
	for c := 0; c < nc; c++ {
		atoms := g.Atoms(c)
		if len(atoms) != g.AtomCount(c) {
			t.Fatalf("cell %d: %d atoms, AtomCount %d", c, len(atoms), g.AtomCount(c))
		}
		for k, a := range atoms {
			if seen[a] {
				t.Fatalf("atom %d binned twice", a)
			}
			seen[a] = true
			if k > 0 && atoms[k-1] >= a {
				t.Fatalf("cell %d lists %d after %d: the counting sort must be stable", c, a, atoms[k-1])
			}
			if got := g.CellOf(pos[a]); got != c {
				t.Fatalf("atom %d in cell %d but CellOf says %d", a, c, got)
			}
			if got := g.CellOfAtom(int(a)); got != c {
				t.Fatalf("atom %d in cell %d but CellOfAtom says %d", a, c, got)
			}
		}
	}
	for i, ok := range seen {
		if !ok {
			t.Fatalf("atom %d missing from the partition", i)
		}
	}
}

// TestGridBinning checks the one binning the SDC subdomains, the
// neighbor cells and the spatial order share: complete, stable CSR
// partitions consistent with CellOf, in range for unwrapped positions,
// a Flatten/Unflatten round trip, and a Rebin that follows moved atoms
// while reusing its buffers. The neighbor package checks the grids its
// NewCellGrid picks, and TestSubdomainOfConsistency the grid Decompose
// builds.
func TestGridBinning(t *testing.T) {
	for _, c := range []struct {
		name   string
		lo, hi vec.Vec3
		counts [3]int
		atoms  int
	}{
		{"non-cubic", vec.Zero, vec.New(12, 8, 4), [3]int{12, 8, 4}, 200},
		{"empty", vec.Zero, vec.Splat(10), [3]int{5, 3, 1}, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			bx := box.MustNew(c.lo, c.hi)
			pos := randomPositions(c.atoms, bx, int64(c.atoms)+1)
			g, err := NewGrid(bx, c.counts)
			if err != nil {
				t.Fatal(err)
			}
			g.Rebin(pos)
			checkBinning(t, g, pos)
			for s := 0; s < g.NumCells(); s++ {
				if got := g.Flatten(g.Unflatten(s)); got != s {
					t.Fatalf("Flatten/Unflatten round trip: %d -> %v -> %d", s, g.Unflatten(s), got)
				}
			}
			// Move every atom, some out of the box, and rebin.
			rng := rand.New(rand.NewSource(8))
			for i := range pos {
				pos[i] = pos[i].Add(vec.New(rng.Float64()*30-15, rng.Float64()*30-15, rng.Float64()*30-15))
				if s := g.CellOf(pos[i]); s < 0 || s >= g.NumCells() {
					t.Fatalf("CellOf(%v) = %d out of range", pos[i], s)
				}
			}
			pstart := &g.PStart[0]
			g.Rebin(pos)
			checkBinning(t, g, pos)
			if &g.PStart[0] != pstart {
				t.Error("Rebin reallocated PStart for an unchanged grid")
			}
		})
	}
}

// goPool is a Parallelizer over plain goroutines, with the contiguous
// chunks in tid order that a pool hands out.
type goPool int

func (p goPool) Threads() int { return int(p) }

func (p goPool) ParallelFor(n int, body func(start, end, tid int)) {
	var wg sync.WaitGroup
	for tid := 0; tid < int(p); tid++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body(tid*n/int(p), (tid+1)*n/int(p), tid)
		}()
	}
	wg.Wait()
}

// TestRebinParallelMatchesInline bins the same positions inline and on
// 1–4 workers, with coordinates at Lo, at Hi, an ulp below Hi, out of
// the cell on periodic axes, and past an open face: PStart, PartIndex
// and every atom's cell must agree.
func TestRebinParallelMatchesInline(t *testing.T) {
	bx := box.MustNew(vec.New(-3, 1, 0.5), vec.New(9, 9, 4.5))
	bx.Periodic[2] = false
	l := bx.Lengths()
	rng := rand.New(rand.NewSource(12))
	pos := randomPositions(500, bx, 4)
	for i := range pos {
		for a := range pos[i] {
			switch rng.Intn(8) {
			case 0:
				pos[i][a] = bx.Lo[a]
			case 1:
				pos[i][a] = bx.Hi[a]
			case 2:
				pos[i][a] = math.Nextafter(bx.Hi[a], bx.Lo[a])
			case 3:
				pos[i][a] += float64(rng.Intn(5)-2) * l[a]
			}
		}
	}
	counts := [3]int{6, 4, 3}
	want, err := NewGrid(bx, counts)
	if err != nil {
		t.Fatal(err)
	}
	want.Rebin(pos)
	checkBinning(t, want, pos)
	for workers := 1; workers <= 4; workers++ {
		g, err := NewGrid(bx, counts)
		if err != nil {
			t.Fatal(err)
		}
		g.RebinParallel(pos, goPool(workers))
		if !slices.Equal(g.PStart, want.PStart) || !slices.Equal(g.PartIndex, want.PartIndex) {
			t.Fatalf("%d workers: PStart/PartIndex differ from the inline rebin", workers)
		}
		for i := range pos {
			if g.CellOfAtom(i) != want.CellOfAtom(i) {
				t.Fatalf("%d workers: atom %d in cell %d, inline %d", workers, i, g.CellOfAtom(i), want.CellOfAtom(i))
			}
		}
	}
}

// TestGridNeighborhood checks the 3×3×3 walk on an axis with one cell,
// as every Dim1 and Dim2 decomposition has: each cell is visited once,
// the cell itself included. The neighbor package checks the interior,
// periodic-corner, two-cell and open-face walks on its cell grids.
func TestGridNeighborhood(t *testing.T) {
	g, err := NewGrid(box.MustNew(vec.Zero, vec.New(10, 10, 2)), [3]int{5, 5, 1})
	if err != nil {
		t.Fatal(err)
	}
	self := g.Flatten([3]int{2, 2, 0})
	visits := map[int]int{}
	g.ForNeighbors(self, func(f int, _ vec.Vec3) { visits[f]++ })
	for f, n := range visits {
		if n > 1 {
			t.Errorf("cell %d visited %d times", f, n)
		}
	}
	if len(visits) != 9 { // 3×3×1
		t.Errorf("%d distinct neighbor cells, want 9", len(visits))
	}
	if visits[self] != 1 {
		t.Error("the walk skipped the cell itself")
	}
}

// TestNewGridCap checks the one bound on a grid's size: counts below 1
// are rejected, and so is any product above MaxCells — before it is
// formed, so huge counts cannot overflow past the check.
func TestNewGridCap(t *testing.T) {
	bx := box.MustNew(vec.Zero, vec.Splat(10))
	if _, err := NewGrid(bx, [3]int{MaxCells, 1, 1}); err != nil {
		t.Errorf("MaxCells cells rejected: %v", err)
	}
	for _, counts := range [][3]int{{0, 1, 1}, {4, -1, 4}} {
		if _, err := NewGrid(bx, counts); err == nil || errors.Is(err, ErrTooManyCells) {
			t.Errorf("counts %v: got %v, want a count error", counts, err)
		}
	}
	for _, counts := range [][3]int{{MaxCells, 2, 1}, {1 << 7, 1 << 7, 1 << 7}, {1 << 40, 1 << 40, 1 << 40}} {
		if _, err := NewGrid(bx, counts); !errors.Is(err, ErrTooManyCells) {
			t.Errorf("counts %v: got %v, want ErrTooManyCells", counts, err)
		}
	}
}
