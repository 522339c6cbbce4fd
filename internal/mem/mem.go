// Package mem implements the memory-model analyses of sdcatomic, the
// fourth static layer of the correctness stack. Lock-free code rests on
// raw sync/atomic protocols — owner-push / steal-half deques, CAS claim
// loops, publish-then-consume handoffs — that the lint rules, the
// write-set pass and sdcflow cannot judge: they reason about
// locks, write sets and goroutine lifecycles, not about the atomics
// discipline that keeps lock-free code correct. The race detector only
// certifies the interleavings a test happens to execute; the passes
// here prove the discipline over every path the source admits.
//
// Three passes share one whole-program access index (which fields and
// package variables are read/written where, atomically or plainly, and
// under which held locks — lock domination reused from sdcflow's
// held-set machinery via flow.HeldSpans):
//
//   - mixed-access: a field or package variable accessed via
//     sync/atomic at one site and by plain load/store at another is a
//     data race unless one lock dominates both kinds of access. The
//     race detector flags plain/atomic mixes only when a test schedule
//     exhibits them; this pass flags them from the source.
//   - publication-safety: when a consumer atomically loads a scalar
//     (tail, head, a completion counter) and then dereferences indexed
//     or pointed-to data, that scalar publishes the data. Producers
//     must finish every initializing write before the publishing
//     store/CAS, and consumers must load through the atomic before
//     dereferencing — the owner-push/steal-half deque handoff seeded
//     in the testdata brokendeque fixture is the motivating instance.
//   - cas-loop: a CAS retry loop must re-load its target inside the
//     loop (a stale expected value spins forever or, worse, succeeds
//     against recycled state), and its recomputation must not read
//     mutable non-atomic state a concurrent writer could change
//     between the load and the CAS.
//
// Soundness: like the other layers, the analyses under-approximate.
// Accesses are attributed to nameable classes (struct fields and
// package-level variables); locals, aliased pointers and
// unsafe.Pointer round-trips are skipped. Statement order within a
// function approximates the happens-before candidates; cross-function
// protocols are inferred from consumer-side evidence only. The dynamic
// complement is the broken-deque runtime detector in this package's
// tests; the cross-validation pair there pins static ⊇ dynamic for
// the seeded deque bugs. See DESIGN.md,
// "Correctness tooling".
package mem

import (
	"sync"

	"sdcmd/internal/lint"
)

// Passes returns the three sdcatomic analyses, sharing one
// whole-program access index between them.
func Passes() []lint.Pass {
	sh := &shared{}
	return []lint.Pass{
		&mixedPass{sh: sh},
		&publishPass{sh: sh},
		&casLoopPass{sh: sh},
	}
}

// shared memoizes the access index so the driver's sequential passes
// do not rebuild it for the same load.
type shared struct {
	mu   sync.Mutex
	pkgs []*lint.Package
	ix   *index
}

func (s *shared) indexFor(pkgs []*lint.Package) *index {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ix != nil && samePkgs(s.pkgs, pkgs) {
		return s.ix
	}
	s.pkgs = pkgs
	s.ix = buildIndex(pkgs)
	return s.ix
}

func samePkgs(a, b []*lint.Package) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
