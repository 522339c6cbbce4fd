package strategy

import (
	"errors"
	"sync"
	"testing"

	"sdcmd/internal/neighbor"
	"sdcmd/internal/vec"
)

// uncoloredReducer is the seeded-race fixture: it distributes atoms in
// contiguous blocks over the pool workers and writes both pair slots —
// SDC's write pattern with the coloring removed, so same-phase write
// sets of different workers overlap at every block boundary. The
// memory accesses themselves are mutex-protected, keeping the Go race
// detector silent: what is violated is the declared shared-pair
// discipline, which is exactly what CheckedReducer must catch.
type uncoloredReducer struct {
	list *neighbor.List
	pool *Pool
	mu   sync.Mutex
	bufs rowBufs
}

func (r *uncoloredReducer) Kind() Kind             { return SDC }
func (r *uncoloredReducer) Threads() int           { return r.pool.Threads() }
func (r *uncoloredReducer) PairWork() int          { return r.list.Pairs() }
func (r *uncoloredReducer) WriteShape() WriteShape { return WriteSharedPair }

func (r *uncoloredReducer) SweepScalar(out []float64, terms Terms[float64]) {
	uncoloredSweep(r, out, terms, r.bufs.scalar)
}

func (r *uncoloredReducer) SweepVector(out []vec.Vec3, terms Terms[vec.Vec3]) {
	uncoloredSweep(r, out, terms, r.bufs.vector)
}

func uncoloredSweep[T Elem](r *uncoloredReducer, out []T, terms Terms[T], bufs []rowBuf[T]) {
	r.pool.ParallelFor(r.list.N(), func(start, end, tid int) {
		for i := start; i < end; i++ {
			r.mu.Lock()
			pairRow(r.list, int32(i), out, terms, &bufs[tid])
			r.mu.Unlock()
		}
	})
}

func (r *uncoloredReducer) ParallelForAtoms(body func(start, end, tid int)) {
	r.pool.ParallelFor(r.list.N(), body)
}

func TestCheckedReducerDetectsSeededRace(t *testing.T) {
	s := newTestSystem(t, 6, 4.0)
	pool := MustNewPool(4)
	defer pool.Close()
	bad := &uncoloredReducer{list: s.list, pool: pool, bufs: newRowBufs(pool.Threads())}
	chk := NewCheckedReducer(bad)
	if chk.Shape() != WriteSharedPair {
		t.Fatalf("shape %v, want shared-pair", chk.Shape())
	}
	sc, vc := s.terms()

	// The sweep must still compute the right answer while being checked.
	want := make([]float64, s.list.N())
	(&serialReducer{list: s.list, bufs: newRowBufs(1)}).SweepScalar(want, sc)
	got := make([]float64, s.list.N())
	chk.SweepScalar(got, sc)
	for i := range want {
		if d := got[i] - want[i]; d > 1e-9 || d < -1e-9 {
			t.Fatalf("checked sweep corrupted result at %d: %g vs %g", i, got[i], want[i])
		}
	}

	conflicts := chk.Conflicts()
	if len(conflicts) == 0 {
		t.Fatal("uncolored block schedule produced no conflicts — the check is blind")
	}
	if err := chk.Err(); err == nil {
		t.Fatal("Err() nil despite conflicts")
	}
	for k := 1; k < len(conflicts); k++ {
		a, b := conflicts[k-1], conflicts[k]
		if a.Sweep > b.Sweep || (a.Sweep == b.Sweep && a.Phase > b.Phase) ||
			(a.Sweep == b.Sweep && a.Phase == b.Phase && a.Slot >= b.Slot) {
			t.Fatalf("conflicts not strictly ordered: %v before %v", a, b)
		}
	}
	for _, c := range conflicts {
		if c.FirstWorker == c.SecondWorker {
			t.Fatalf("self-conflict reported: %v", c)
		}
		if c.Kind != "scalar" {
			t.Fatalf("conflict from wrong sweep kind: %v", c)
		}
	}

	// The vector sweep races the same way.
	chk.Reset()
	if chk.Err() != nil {
		t.Fatal("Reset did not clear conflicts")
	}
	chk.SweepVector(make([]vec.Vec3, s.list.N()), vc)
	if len(chk.Conflicts()) == 0 {
		t.Fatal("vector sweep conflicts missed")
	}
}

// TestCheckedReducerCleanStrategies is the dynamic half of the paper's
// §II.B claim: all four parallel strategies (and serial) run full
// scalar+vector sweeps under the checker with zero conflicts, and the
// checked sweeps still produce the serial answer. Legal SDC passing at
// threads > 1 also proves the phase hook works: without the per-color
// phase advance, boundary atoms written in different colors would be
// false positives.
func TestCheckedReducerCleanStrategies(t *testing.T) {
	s := newTestSystem(t, 6, 4.0)
	sc, vc := s.terms()
	wantS := make([]float64, s.list.N())
	(&serialReducer{list: s.list, bufs: newRowBufs(1)}).SweepScalar(wantS, sc)
	wantV := make([]vec.Vec3, s.list.N())
	(&serialReducer{list: s.list, bufs: newRowBufs(1)}).SweepVector(wantV, vc)

	wantShape := map[Kind]WriteShape{
		Serial:   WriteSharedPair,
		SDC:      WriteSharedPair,
		CS:       WriteSyncedPair,
		AtomicCS: WriteSyncedPair,
		SAP:      WritePrivatePair,
		RC:       WriteOwnerOnly,
	}
	for _, k := range Kinds {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			r, pool := buildReducer(t, s, k, 4)
			if pool != nil {
				defer pool.Close()
			}
			chk := NewCheckedReducer(r)
			if chk.Shape() != wantShape[k] {
				t.Fatalf("shape %v, want %v", chk.Shape(), wantShape[k])
			}
			if chk.Kind() != k || chk.Threads() != r.Threads() || chk.PairWork() != r.PairWork() {
				t.Fatal("delegated accessors disagree with the wrapped reducer")
			}
			gotS := make([]float64, s.list.N())
			chk.SweepScalar(gotS, sc)
			gotV := make([]vec.Vec3, s.list.N())
			chk.SweepVector(gotV, vc)
			for i := range wantS {
				if d := gotS[i] - wantS[i]; d > 1e-9 || d < -1e-9 {
					t.Fatalf("scalar mismatch at %d: %g vs %g", i, gotS[i], wantS[i])
				}
				for a := 0; a < 3; a++ {
					if d := gotV[i][a] - wantV[i][a]; d > 1e-9 || d < -1e-9 {
						t.Fatalf("vector mismatch at %d[%d]: %g vs %g", i, a, gotV[i][a], wantV[i][a])
					}
				}
			}
			if err := chk.Err(); err != nil {
				t.Fatalf("clean %v strategy flagged: %v", k, err)
			}
		})
	}
}

// shapelessReducer hides any WriteShaper declaration of the wrapped
// reducer: the embedded interface's method set carries Reducer only.
type shapelessReducer struct{ Reducer }

func TestCheckedReducerDefaultsConservative(t *testing.T) {
	s := newTestSystem(t, 6, 4.0)
	r, pool := buildReducer(t, s, SAP, 2)
	defer pool.Close()
	chk := NewCheckedReducer(shapelessReducer{r})
	if chk.Shape() != WriteSharedPair {
		t.Fatalf("undeclared shape resolved to %v, want conservative shared-pair", chk.Shape())
	}
}

func TestCheckedReducerEmbeddingPhase(t *testing.T) {
	s := newTestSystem(t, 6, 4.0)
	r, pool := buildReducer(t, s, SDC, 3)
	defer pool.Close()
	chk := NewCheckedReducer(r)
	var mu sync.Mutex
	covered := make([]bool, s.list.N())
	chk.ParallelForAtoms(func(start, end, _ int) {
		mu.Lock()
		for i := start; i < end; i++ {
			covered[i] = true
		}
		mu.Unlock()
	})
	for i, ok := range covered {
		if !ok {
			t.Fatalf("atom %d not covered by ParallelForAtoms", i)
		}
	}
	if chk.Err() != nil {
		t.Fatal("embedding phase must not record conflicts")
	}
}

func TestAuditNeedHalfListTyped(t *testing.T) {
	s := newTestSystem(t, 6, 4.0)
	full := s.list.ToFull()
	_, err := AuditSDCSchedule(s.dec, full, 4)
	if !errors.Is(err, ErrNeedHalfList) {
		t.Fatalf("full-list audit error %v, want errors.Is ErrNeedHalfList", err)
	}
}
