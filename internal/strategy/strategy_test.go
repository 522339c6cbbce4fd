package strategy

import (
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"sdcmd/internal/box"
	"sdcmd/internal/core"
	"sdcmd/internal/lattice"
	"sdcmd/internal/neighbor"
	"sdcmd/internal/vec"
)

// testSystem bundles everything the reducers need.
type testSystem struct {
	bx   box.Box
	pos  []vec.Vec3
	list *neighbor.List
	dec  *core.Decomposition
}

func newTestSystem(t *testing.T, cells int, reach float64) *testSystem {
	t.Helper()
	cfg := lattice.MustBuild(lattice.BCC, cells, cells, cells, 2.8665)
	cfg.Jitter(0.08, 42)
	list, err := neighbor.Builder{Cutoff: reach - 0.5, Skin: 0.5, Half: true}.Build(cfg.Box, cfg.Pos)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := core.Decompose(cfg.Box, cfg.Pos, core.Dim2, reach)
	if err != nil {
		t.Fatal(err)
	}
	return &testSystem{bx: cfg.Box, pos: cfg.Pos, list: list, dec: dec}
}

// terms returns geometry-derived test kernels: a scalar "density-like"
// pair term and an antisymmetric vector term, both real functions of
// the minimum-image distance so mistakes in pair handling change sums.
func (s *testSystem) terms() (Terms[float64], Terms[vec.Vec3]) {
	sc := func(i int32, js []int32, ci, cj []float64) {
		for k, j := range js {
			v := math.Exp(-s.bx.MinImage(s.pos[i], s.pos[j]).Norm())
			ci[k], cj[k] = v, v
		}
	}
	vc := func(i int32, js []int32, ci, _ []vec.Vec3) {
		for k, j := range js {
			d := s.bx.MinImage(s.pos[i], s.pos[j])
			ci[k] = d.Scale(1 / (1 + d.Norm2()))
		}
	}
	return sc, vc
}

func buildReducer(t *testing.T, s *testSystem, k Kind, threads int) (Reducer, *Pool) {
	t.Helper()
	var pool *Pool
	if k != Serial {
		pool = MustNewPool(threads)
	}
	r, err := New(Config{Kind: k, List: s.list, Pool: pool, Decomp: s.dec})
	if err != nil {
		t.Fatal(err)
	}
	return r, pool
}

func TestKindStringsAndParse(t *testing.T) {
	for _, k := range Kinds {
		s := k.String()
		got, err := ParseKind(s)
		if err != nil || got != k {
			t.Errorf("round trip %v: %v, %v", k, got, err)
		}
	}
	if _, err := ParseKind("bogus"); err == nil {
		t.Error("bogus kind accepted")
	}
	// The removed work-stealing kind must be rejected with an error that
	// names every kind still accepted.
	_, err := ParseKind("tasked")
	if err == nil {
		t.Fatal("removed kind \"tasked\" accepted")
	}
	for _, k := range Kinds {
		if !strings.Contains(err.Error(), k.String()) {
			t.Errorf("ParseKind error %q does not list kind %q", err, k)
		}
	}
	if Kind(99).String() != "Kind(99)" {
		t.Error("unknown kind string wrong")
	}
	if got, err := ParseKind(" SDC "); err != nil || got != SDC {
		t.Error("ParseKind must be case/space insensitive")
	}
}

func TestNewValidation(t *testing.T) {
	s := newTestSystem(t, 6, 4.0)
	pool := MustNewPool(2)
	defer pool.Close()

	if _, err := New(Config{Kind: SDC, List: nil, Pool: pool, Decomp: s.dec}); err == nil {
		t.Error("nil list accepted")
	}
	full := s.list.ToFull()
	if _, err := New(Config{Kind: Serial, List: full}); err == nil {
		t.Error("full list accepted")
	}
	if _, err := New(Config{Kind: SDC, List: s.list, Pool: nil, Decomp: s.dec}); err == nil {
		t.Error("nil pool accepted for parallel kind")
	}
	if _, err := New(Config{Kind: SDC, List: s.list, Pool: pool, Decomp: nil}); err == nil {
		t.Error("SDC without decomposition accepted")
	}
	if _, err := New(Config{Kind: Kind(77), List: s.list, Pool: pool}); err == nil {
		t.Error("unknown kind accepted")
	}
	// Reach too small for the list: coloring would be unsafe.
	badDec, err := core.Decompose(s.bx, s.pos, core.Dim2, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{Kind: SDC, List: s.list, Pool: pool, Decomp: badDec}); err == nil {
		t.Error("undersized decomposition reach accepted")
	}
	// Serial needs no pool.
	if _, err := New(Config{Kind: Serial, List: s.list}); err != nil {
		t.Errorf("serial without pool rejected: %v", err)
	}
}

func TestAllStrategiesMatchSerial(t *testing.T) {
	s := newTestSystem(t, 6, 4.0)
	sc, vc := s.terms()
	n := s.list.N()

	ref, _ := buildReducer(t, s, Serial, 1)
	wantScalar := make([]float64, n)
	ref.SweepScalar(wantScalar, sc)
	wantVector := make([]vec.Vec3, n)
	ref.SweepVector(wantVector, vc)

	for _, k := range []Kind{SDC, CS, AtomicCS, SAP, RC} {
		for _, threads := range []int{1, 2, 3, 4, 7} {
			r, pool := buildReducer(t, s, k, threads)
			gotScalar := make([]float64, n)
			r.SweepScalar(gotScalar, sc)
			gotVector := make([]vec.Vec3, n)
			r.SweepVector(gotVector, vc)
			if pool != nil {
				pool.Close()
			}
			for i := 0; i < n; i++ {
				if math.Abs(gotScalar[i]-wantScalar[i]) > 1e-10*(1+math.Abs(wantScalar[i])) {
					t.Fatalf("%v/%d threads: scalar[%d] = %g, want %g", k, threads, i, gotScalar[i], wantScalar[i])
				}
				if !gotVector[i].ApproxEqual(wantVector[i], 1e-10*(1+wantVector[i].Norm())) {
					t.Fatalf("%v/%d threads: vector[%d] = %v, want %v", k, threads, i, gotVector[i], wantVector[i])
				}
			}
		}
	}
}

func TestSweepsAccumulate(t *testing.T) {
	// Sweeps must add into out, not overwrite it, wherever the strategy
	// adds the scratch: out itself (Serial, SDC, and RC for atom i),
	// under a mutex or CAS (CS, AtomicCS) or via private copies (SAP).
	s := newTestSystem(t, 6, 4.0)
	sc, vc := s.terms()
	for _, k := range Kinds {
		r, pool := buildReducer(t, s, k, 3)
		checkAccumulates(t, k.String()+"/scalar", r.SweepScalar, sc, s.list.N())
		checkAccumulates(t, k.String()+"/vector", r.SweepVector, vc, s.list.N())
		if pool != nil {
			pool.Close()
		}
	}
}

// checkAccumulates runs sweep twice into a non-zero out and checks that
// every component ends at its start value plus twice what one sweep
// into zeros contributes.
func checkAccumulates[T Elem](t *testing.T, name string, sweep func([]T, Terms[T]), terms Terms[T], n int) {
	t.Helper()
	once := make([]T, n)
	sweep(once, terms)
	start := make([]T, n)
	for i := range start {
		for c := range floats(&start[i]) {
			floats(&start[i])[c] = float64(i%7) - 2.5 + float64(c)
		}
	}
	out := append([]T(nil), start...)
	sweep(out, terms)
	sweep(out, terms)
	for i := range out {
		got, s0, o := floats(&out[i]), floats(&start[i]), floats(&once[i])
		for c := range got {
			want := s0[c] + 2*o[c]
			if math.Abs(got[c]-want) > 1e-10*(1+math.Abs(want)) {
				t.Fatalf("%s: out[%d][%d] = %g after two sweeps, want %g", name, i, c, got[c], want)
			}
		}
	}
}

func TestSDCWriteSetsDisjoint(t *testing.T) {
	// The paper's central safety claim (§II.B): within one color, the
	// write sets of distinct subdomains never overlap. On two or more
	// workers any two subdomains of a color may run at once, so any
	// overlap is a conflict.
	s := newTestSystem(t, 8, 4.0)
	conflicts, err := AuditSDCSchedule(s.dec, s.list, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(conflicts) != 0 {
		c := conflicts[0]
		t.Fatalf("%d conflicts; first: color %d, atom %d written by subdomains %d and %d",
			len(conflicts), c.Color, c.Slot, c.FirstSub, c.SecondSub)
	}
}

func TestSDCColorsCoverAllPairs(t *testing.T) {
	// Every stored pair is visited exactly once across the color sweep.
	s := newTestSystem(t, 6, 4.0)
	pool := MustNewPool(3)
	defer pool.Close()
	r, err := New(Config{Kind: SDC, List: s.list, Pool: pool, Decomp: s.dec})
	if err != nil {
		t.Fatal(err)
	}
	var visited int64
	var mu = make(chan struct{}, 1)
	mu <- struct{}{}
	count := func(_ int32, js []int32, ci, cj []float64) {
		clear(ci)
		clear(cj)
		<-mu
		visited += int64(len(js))
		mu <- struct{}{}
	}
	out := make([]float64, s.list.N())
	r.SweepScalar(out, count)
	if visited != int64(s.list.Pairs()) {
		t.Errorf("SDC visited %d pairs, want %d", visited, s.list.Pairs())
	}
}

func TestPairWorkAccounting(t *testing.T) {
	s := newTestSystem(t, 6, 4.0)
	pool := MustNewPool(2)
	defer pool.Close()
	for _, k := range []Kind{Serial, SDC, CS, AtomicCS, SAP} {
		r, err := New(Config{Kind: k, List: s.list, Pool: pool, Decomp: s.dec})
		if err != nil {
			t.Fatal(err)
		}
		if r.PairWork() != s.list.Pairs() {
			t.Errorf("%v PairWork = %d, want %d", k, r.PairWork(), s.list.Pairs())
		}
	}
	r, err := New(Config{Kind: RC, List: s.list, Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	if r.PairWork() != 2*s.list.Pairs() {
		t.Errorf("RC PairWork = %d, want %d (doubled)", r.PairWork(), 2*s.list.Pairs())
	}
	// RC's doubled count is exactly the symmetrized list's entry count —
	// the same number neighbor.Stats reports for it.
	if full := s.list.ToFull(); r.PairWork() != full.Stats().Pairs {
		t.Errorf("RC PairWork %d != symmetrized Stats.Pairs %d", r.PairWork(), full.Stats().Pairs)
	}
	// The checked wrapper must report the inner reducer's work, not its
	// own bookkeeping.
	if chk := NewCheckedReducer(r); chk.PairWork() != r.PairWork() {
		t.Errorf("CheckedReducer PairWork %d != inner %d", chk.PairWork(), r.PairWork())
	}
}

func TestParallelForAtomsCoversRange(t *testing.T) {
	s := newTestSystem(t, 6, 4.0)
	for _, k := range Kinds {
		r, pool := buildReducer(t, s, k, 3)
		seen := make([]int32, s.list.N())
		var mu = make(chan struct{}, 1)
		mu <- struct{}{}
		r.ParallelForAtoms(func(start, end, tid int) {
			<-mu
			for i := start; i < end; i++ {
				seen[i]++
			}
			mu <- struct{}{}
		})
		if pool != nil {
			pool.Close()
		}
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("%v: atom %d visited %d times", k, i, c)
			}
		}
	}
}

func TestThreadsReporting(t *testing.T) {
	s := newTestSystem(t, 6, 4.0)
	r, _ := buildReducer(t, s, Serial, 1)
	if r.Threads() != 1 || r.Kind() != Serial {
		t.Error("serial reducer misreports")
	}
	for _, k := range []Kind{SDC, CS, AtomicCS, SAP, RC} {
		r, pool := buildReducer(t, s, k, 5)
		if r.Threads() != 5 {
			t.Errorf("%v Threads = %d", k, r.Threads())
		}
		if r.Kind() != k {
			t.Errorf("Kind = %v, want %v", r.Kind(), k)
		}
		pool.Close()
	}
}

func TestAtomicAddFloat64(t *testing.T) {
	var x float64
	pool := MustNewPool(8)
	defer pool.Close()
	pool.Run(func(tid int) {
		for k := 0; k < 1000; k++ {
			atomicAddFloat64(&x, 0.5)
		}
	})
	if x != 4000 {
		t.Errorf("atomic adds lost updates: %g, want 4000", x)
	}
}

func TestPoolValidation(t *testing.T) {
	if _, err := NewPool(0); err == nil {
		t.Error("0-thread pool accepted")
	}
	if _, err := NewPool(-3); err == nil {
		t.Error("negative pool accepted")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("MustNewPool must panic")
			}
		}()
		MustNewPool(0)
	}()
}

func TestPoolParallelFor(t *testing.T) {
	pool := MustNewPool(4)
	defer pool.Close()
	n := 1003
	hits := make([]int32, n)
	pool.ParallelFor(n, func(start, end, tid int) {
		for i := start; i < end; i++ {
			hits[i]++
		}
	})
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d hit %d times", i, h)
		}
	}
	// Empty range is a no-op.
	pool.ParallelFor(0, func(start, end, tid int) { t.Error("body called for n=0") })
	pool.ParallelForDynamic(0, func(k, tid int) { t.Error("body called for n=0") })
}

// TestPoolParallelForDynamic checks the claim schedule: every index runs
// exactly once on a valid worker, and a worker that stalls at its first
// claim leaves every other index to the other workers. A static deal
// (index k to worker k mod 3) would keep indices 3, 6, … waiting behind
// the stalled one; the stall then ends on its timeout and the test fails
// instead of hanging.
func TestPoolParallelForDynamic(t *testing.T) {
	const threads, n = 3, 17
	pool := MustNewPool(threads)
	defer pool.Close()
	var mu sync.Mutex
	runs, owner := make([]int, n), make([]int, n)
	others := 0
	release := make(chan struct{})
	pool.ParallelForDynamic(n, func(k, tid int) {
		mu.Lock()
		runs[k]++
		owner[k] = tid
		if k != 0 {
			if others++; others == n-1 {
				close(release)
			}
		}
		mu.Unlock()
		if k == 0 {
			select {
			case <-release:
			case <-time.After(5 * time.Second):
				t.Errorf("worker %d stalled at index 0 for 5 s: the other workers left indices unclaimed", tid)
			}
		}
	})
	for k := range n {
		if runs[k] != 1 {
			t.Fatalf("index %d ran %d times", k, runs[k])
		}
		if owner[k] < 0 || owner[k] >= threads {
			t.Fatalf("index %d ran on worker %d of %d", k, owner[k], threads)
		}
		if k > 0 && owner[k] == owner[0] {
			t.Errorf("index %d ran on worker %d, which was stalled at index 0", k, owner[0])
		}
	}
}

// TestPoolLoopsAllocateNothing pins the bound regions of ParallelFor and
// ParallelForDynamic: a call with a body made beforehand allocates
// nothing.
func TestPoolLoopsAllocateNothing(t *testing.T) {
	pool := MustNewPool(2)
	defer pool.Close()
	hits := make([]int, 64)
	chunks := func(start, end, tid int) {
		for i := start; i < end; i++ {
			hits[i]++
		}
	}
	claims := func(k, tid int) { hits[k]++ }
	if a := testing.AllocsPerRun(50, func() { pool.ParallelFor(len(hits), chunks) }); a != 0 {
		t.Errorf("ParallelFor: %v allocations per call, want 0", a)
	}
	if a := testing.AllocsPerRun(50, func() { pool.ParallelForDynamic(len(hits), claims) }); a != 0 {
		t.Errorf("ParallelForDynamic: %v allocations per call, want 0", a)
	}
	for i, h := range hits {
		if h != 2*51 {
			t.Fatalf("index %d ran %d times in 2×51 calls", i, h)
		}
	}
}

func TestPoolFewerItemsThanThreads(t *testing.T) {
	pool := MustNewPool(8)
	defer pool.Close()
	var total int32
	mu := make(chan struct{}, 1)
	mu <- struct{}{}
	pool.ParallelFor(3, func(start, end, tid int) {
		<-mu
		total += int32(end - start)
		mu <- struct{}{}
	})
	if total != 3 {
		t.Errorf("covered %d of 3 items", total)
	}
}

func TestChunkBalance(t *testing.T) {
	for _, tc := range []struct{ n, threads int }{{10, 3}, {7, 7}, {5, 8}, {100, 16}, {1, 1}} {
		covered := 0
		prevEnd := 0
		for tid := 0; tid < tc.threads; tid++ {
			s, e := chunk(tc.n, tc.threads, tid)
			if s != prevEnd {
				t.Fatalf("n=%d t=%d: chunk %d starts at %d, want %d", tc.n, tc.threads, tid, s, prevEnd)
			}
			if e-s > tc.n/tc.threads+1 {
				t.Fatalf("n=%d t=%d: chunk %d oversized (%d)", tc.n, tc.threads, tid, e-s)
			}
			covered += e - s
			prevEnd = e
		}
		if covered != tc.n {
			t.Fatalf("n=%d t=%d: covered %d", tc.n, tc.threads, covered)
		}
	}
}

func TestPoolCloseIdempotent(t *testing.T) {
	pool := MustNewPool(2)
	pool.Close()
	pool.Close() // must not panic
}

func TestStressConcurrentSweeps(t *testing.T) {
	// Hammer the parallel strategies with a larger random system to
	// shake out races (run under -race in CI).
	bx := box.MustNew(vec.Zero, vec.Splat(40))
	rng := rand.New(rand.NewSource(77))
	pos := make([]vec.Vec3, 3000)
	for i := range pos {
		pos[i] = vec.New(rng.Float64()*40, rng.Float64()*40, rng.Float64()*40)
	}
	list, err := neighbor.Builder{Cutoff: 3.0, Skin: 0.5, Half: true}.Build(bx, pos)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := core.Decompose(bx, pos, core.Dim2, 3.5)
	if err != nil {
		t.Fatal(err)
	}
	sc := func(_ int32, _ []int32, ci, cj []float64) {
		for k := range ci {
			ci[k], cj[k] = 1, 1
		}
	}
	serial, err := New(Config{Kind: Serial, List: list})
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, len(pos))
	serial.SweepScalar(want, sc)

	pool := MustNewPool(6)
	defer pool.Close()
	for _, k := range []Kind{SDC, CS, AtomicCS, SAP, RC} {
		r, err := New(Config{Kind: k, List: list, Pool: pool, Decomp: dec})
		if err != nil {
			t.Fatal(err)
		}
		for rep := 0; rep < 3; rep++ {
			got := make([]float64, len(pos))
			r.SweepScalar(got, sc)
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%v rep %d: count mismatch at %d: %g vs %g", k, rep, i, got[i], want[i])
				}
			}
		}
	}
}

func TestAuditSDCScheduleClean(t *testing.T) {
	// A legal decomposition must produce zero conflicts at any width.
	s := newTestSystem(t, 8, 4.0)
	for _, threads := range []int{1, 2, 3, 5, 16} {
		conflicts, err := AuditSDCSchedule(s.dec, s.list, threads)
		if err != nil {
			t.Fatal(err)
		}
		if len(conflicts) != 0 {
			t.Fatalf("threads=%d: %d conflicts, first %+v", threads, len(conflicts), conflicts[0])
		}
	}
}

func TestAuditSDCScheduleDetectsBadColoring(t *testing.T) {
	// Corrupt the coloring: merge two adjacent colors into one. The
	// audit must light up.
	s := newTestSystem(t, 8, 4.0)
	dec := *s.dec
	merged := make([][]int32, dec.NumColors())
	copy(merged, dec.ByColor)
	merged[0] = append(append([]int32(nil), dec.ByColor[0]...), dec.ByColor[1]...)
	merged[1] = nil
	dec.ByColor = merged
	conflicts, err := AuditSDCSchedule(&dec, s.list, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(conflicts) == 0 {
		t.Fatal("merged-color schedule produced no conflicts — detector is blind")
	}
	c := conflicts[0]
	if c.FirstSub == c.SecondSub {
		t.Errorf("conflict between identical subdomains: %+v", c)
	}
}

func TestAuditSDCScheduleValidation(t *testing.T) {
	s := newTestSystem(t, 6, 4.0)
	if _, err := AuditSDCSchedule(nil, s.list, 2); err == nil {
		t.Error("nil decomposition accepted")
	}
	if _, err := AuditSDCSchedule(s.dec, nil, 2); err == nil {
		t.Error("nil list accepted")
	}
	if _, err := AuditSDCSchedule(s.dec, s.list.ToFull(), 2); err == nil {
		t.Error("full list accepted")
	}
	if _, err := AuditSDCSchedule(s.dec, s.list, 0); err == nil {
		t.Error("0 threads accepted")
	}
}

func TestAuditSingleThreadNeverConflicts(t *testing.T) {
	// With one worker everything is same-TID: rewrites are fine even if
	// the coloring were broken — the audit distinguishes workers, not
	// just repeated writes.
	s := newTestSystem(t, 6, 4.0)
	dec := *s.dec
	merged := make([][]int32, dec.NumColors())
	copy(merged, dec.ByColor)
	merged[0] = append(append([]int32(nil), dec.ByColor[0]...), dec.ByColor[1]...)
	merged[1] = nil
	dec.ByColor = merged
	conflicts, err := AuditSDCSchedule(&dec, s.list, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(conflicts) != 0 {
		t.Errorf("single worker cannot conflict with itself: %d conflicts", len(conflicts))
	}
}
