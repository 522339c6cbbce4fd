// Package flow implements the concurrency-lifecycle analyses of
// sdcflow, the third static layer of the correctness stack. The
// internal/lint rules check per-package source disciplines and
// internal/vet proves write-set confinement; the passes here prove the
// *lifecycle* claims those layers assume: every goroutine the control
// plane launches is joined or stoppable, mutexes are acquired in one
// global order, cancellation reaches every blocking operation the
// ctx-accepting entry points can hit, and no map iteration order leaks
// into float accumulation or serialized artifacts (the bit-for-bit
// resume and content-addressed cache invariants).
//
// Four passes share one whole-program function/call-graph index built
// over the same single parse and type-check as the other tools:
//
//   - goroutine-leak: every `go` statement needs provable join/stop
//     evidence — a WaitGroup.Done in the body, a completion close(ch),
//     a stop-channel select that returns, a range over a closable
//     channel, or a result send the launcher receives.
//   - lock-order: the mutex acquisition graph (field- and
//     global-rooted sync.Mutex/RWMutex classes, propagated through
//     static calls) must be acyclic, and no path may re-acquire a
//     class it already holds.
//   - ctx-propagation: blocking operations (channel sends/receives,
//     selects without an escape, time.Sleep, WaitGroup/Cond waits) in
//     functions reachable from a context.Context-accepting entry point
//     must be cancellable — a ctx.Done() or default or time-channel
//     select case — or carry a reasoned //lint:ignore.
//   - nondet-order: map iteration whose order flows into float or
//     string accumulation, serialized output (fmt.Fprint*, Write,
//     Encode, hash sums), or an unsorted slice append is flagged;
//     iterating sorted keys keeps runs reproducible.
//
// Soundness: like sdcvet, the analyses under-approximate. Dynamic
// calls through func values are not followed; interface calls are
// bridged to the program's concrete method sets by name and arity
// (documented below) but externally-implemented interfaces stay
// opaque; goroutine bodies that cannot be resolved statically are
// reported rather than guessed at. The dynamic complements — the
// goroutine-count shutdown tests in strategy/telemetry/serve and the
// -race CI matrix — cover the gaps at runtime; the cross-validation
// test in this package pins static ⊇ dynamic for the leak pass. See
// DESIGN.md, "Correctness tooling".
package flow

import (
	"sync"

	"sdcmd/internal/lint"
)

// Passes returns the four sdcflow analyses, sharing one whole-program
// call-graph index between them.
func Passes() []lint.Pass {
	sh := &shared{}
	return []lint.Pass{
		&leakPass{sh: sh},
		&lockPass{sh: sh},
		&ctxPass{sh: sh},
		&nondetPass{},
	}
}

// shared memoizes the program index so the driver's sequential passes
// do not rebuild the call graph for the same load.
type shared struct {
	mu   sync.Mutex
	pkgs []*lint.Package
	pr   *program
}

func (s *shared) programFor(pkgs []*lint.Package) *program {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.pr != nil && samePkgs(s.pkgs, pkgs) {
		return s.pr
	}
	s.pkgs = pkgs
	s.pr = buildProgram(pkgs)
	return s.pr
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
