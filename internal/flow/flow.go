// Package flow implements sdcvet's whole-program passes, the layers of
// the correctness stack above the per-package source rules of
// internal/lint. Every pass but nondet-order reads one program index,
// built once per run over the same single parse and type-check as the
// other tools (graph.go): a node per function declaration and function
// literal, call edges resolved by one resolver, every `go` statement,
// every worker body handed to a pool, and a write-set summary per node.
//
// Write-set confinement, the static counterpart of
// strategy.CheckedReducer. The paper's SDC correctness argument (§II.B)
// licenses exactly one kind of unsynchronized shared write:
// reduction-array updates issued inside an approved reducer, where the
// coloring proves same-phase disjointness.
//
//   - sdc-shared-write: everything else a Pool worker body writes must
//     be provably private — thread-confined (indexed by tid or the
//     worker's round-robin k), block-confined (indexed by the worker's
//     [start, end) loop), or local to the body. The index summarizes
//     which parameter, captured and global slices every function may
//     write and propagates the summaries bottom-up through calls and
//     closures; the pass flags any worker-body write to a shared array
//     whose confinement it cannot prove and whose file is not on the
//     approved-reducer list.
//   - hot-loop: functions reachable from the kernel roots (Compute and
//     the force sweeps of internal/force and internal/strategy) are
//     kernel-hot, and allocations (make, new, growing append, interface
//     boxing), defer, and map iteration inside their loops are
//     per-sweep costs the paper's timing model never budgets for.
//
// Concurrency lifecycle: the claims the layers below assume.
//
//   - goroutine-leak: every `go` statement needs provable join/stop
//     evidence — a WaitGroup.Done in the body, a completion close(ch),
//     a stop-channel select that returns, a range over a closable
//     channel, or a result send the launcher receives.
//   - lock-order: the mutex acquisition graph (field- and
//     global-rooted sync.Mutex/RWMutex classes, propagated through
//     calls) must be acyclic, and no path may re-acquire a class it
//     already holds.
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
// Soundness: the analyses under-approximate. The resolver follows
// declared functions and methods, interface calls (bridged to the
// program's concrete method sets by name and arity), func-typed struct
// fields (to every function the program stores in them) and literals;
// func values passed as parameters and externally-implemented
// interfaces stay unresolved and are assumed to write, block and lock
// nothing. Writes whose base the walk cannot name are skipped, and
// lock-based synchronization is not modeled — a mutex-guarded write
// outside an approved file is still flagged. Goroutine bodies that
// cannot be resolved statically are reported rather than guessed at.
// The dynamic complements — strategy.CheckedReducer, the
// goroutine-count shutdown tests and the -race CI matrix — cover the
// gaps at runtime, and the cross-validation tests in this package pin
// static ⊇ dynamic for the write-set and leak passes. See DESIGN.md,
// "Correctness tooling".
package flow

import (
	"sync"

	"sdcmd/internal/lint"
)

// Passes returns sdcvet's whole-program analyses, sharing one program
// index between them.
func Passes() []lint.Pass {
	sh := &shared{}
	return []lint.Pass{
		&workerWritePass{sh: sh},
		&hotLoopPass{sh: sh},
		&leakPass{sh: sh},
		&lockPass{sh: sh},
		&ctxPass{sh: sh},
		&nondetPass{},
	}
}

// shared memoizes the program index so the driver's sequential passes
// do not rebuild it for the same load.
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
