// Package strategy implements the five treatments of the irregular
// array reductions in the EAM force loops that the paper evaluates
// (§I, §III.C): the Spatial-Decomposition-Coloring method (the paper's
// contribution), the Critical-Section family (mutex and lock-free
// atomic), Shared-Array-Privatization, Redundant-Computations, and the
// serial baseline. All run through one Reducer interface so the force
// engine is strategy-agnostic, exactly as the experiments require.
package strategy

import (
	"fmt"
	"sync"
	"time"

	"sdcmd/internal/telemetry"
)

// Pool is a persistent worker pool with fork/join semantics, the Go
// analogue of an OpenMP parallel region: workers are created once and
// reused, so each sweep pays only the dispatch + barrier cost (the
// paper's fork-join overhead that §IV charges 2D/3D SDC with, without
// repeated thread creation). A one-worker pool starts no goroutine: its
// regions run on the caller.
//
// Lifecycle contract: Run and the ParallelFor* helpers may be called
// any number of times before Close, from one dispatching goroutine at a
// time (dispatches are serialized internally, so a concurrent Close
// waits for an in-flight region to join). After Close the pool is dead:
// any further Run/ParallelFor* panics immediately with a clear message
// instead of deadlocking on the workers that have already exited.
type Pool struct {
	threads int
	work    []chan func(tid int)
	done    chan struct{}
	wg      sync.WaitGroup
	closed  bool
	mu      sync.Mutex

	// The loop of the ParallelFor* call in flight, stored under mu
	// before its region is dispatched: the regions are bound once in
	// NewPool, so a call allocates nothing.
	forN                 int
	forBody              func(start, end, tid int)
	dynBody              func(k, tid int)
	forRegion, dynRegion func(tid int)
	// cursor is the next index ParallelForDynamic hands out; claimMu
	// guards it while the workers claim.
	claimMu sync.Mutex
	cursor  int

	// tel, when set, receives per-worker busy/barrier-wait time for
	// every parallel region; busyNS is the per-region scratch the
	// workers fill (worker t writes slot t only; the region's WaitGroup
	// join orders those writes before the dispatcher reads them).
	tel    *telemetry.Recorder
	busyNS []int64
}

// NewPool starts threads workers, or none for one (its regions run on
// the caller). threads must be >= 1.
func NewPool(threads int) (*Pool, error) {
	if threads < 1 {
		return nil, fmt.Errorf("strategy: pool needs >= 1 thread, got %d", threads)
	}
	p := &Pool{threads: threads, done: make(chan struct{})}
	p.forRegion, p.dynRegion = p.runChunk, p.runClaims
	if threads > 1 {
		p.work = make([]chan func(tid int), threads)
		for t := 0; t < threads; t++ {
			p.work[t] = make(chan func(tid int))
			go p.worker(t)
		}
	}
	return p, nil
}

// MustNewPool panics on error; for fixed thread counts in tests.
func MustNewPool(threads int) *Pool {
	p, err := NewPool(threads)
	if err != nil {
		panic(err)
	}
	return p
}

func (p *Pool) worker(tid int) {
	for {
		select {
		case fn := <-p.work[tid]:
			p.exec(fn, tid)
			p.wg.Done()
		case <-p.done:
			return
		}
	}
}

// Threads returns the worker count.
func (p *Pool) Threads() int { return p.threads }

// SetTelemetry attaches a recorder that accumulates per-worker busy and
// barrier-wait time for every subsequent parallel region (nil detaches;
// utilization is busy/(busy+wait)). Call it before the pool is in use:
// it is not synchronized against an in-flight Run.
func (p *Pool) SetTelemetry(rec *telemetry.Recorder) {
	p.tel = rec
	if rec != nil && p.busyNS == nil {
		p.busyNS = make([]int64, p.threads)
	}
}

// Run executes fn once on every worker (fn receives the worker id) and
// blocks until all return — one parallel region with its implicit
// barrier. Run is not reentrant: callers must not call Run from inside
// fn. Calling Run after Close panics ("fail fast"): the workers have
// exited, so the dispatch could never complete.
func (p *Pool) Run(fn func(tid int)) {
	// The dispatch mutex closes the Run-vs-Close race: Close cannot
	// retire the workers while a region is being dispatched or joined,
	// and a post-Close Run fails in dispatch instead of blocking forever
	// on the unbuffered work channels.
	p.mu.Lock()
	defer p.mu.Unlock()
	p.dispatch(fn)
}

// dispatch runs fn on every worker and joins them; p.mu must be held.
// A one-worker pool runs fn on the caller.
func (p *Pool) dispatch(fn func(tid int)) {
	if p.closed {
		//lint:ignore no-panic lifecycle violation (Run after Close) would otherwise deadlock forever; failing fast is the documented contract
		panic("strategy: Pool.Run called after Close (pool workers have exited)")
	}
	var region telemetry.Span
	if p.tel != nil {
		region = p.tel.Span()
	}
	if p.threads == 1 {
		p.exec(fn, 0)
	} else {
		p.wg.Add(p.threads)
		for t := 0; t < p.threads; t++ {
			// The send always completes: the dispatch mutex guarantees
			// the workers are alive (Close blocks on it, post-Close
			// dispatch panics above), and every worker is parked on its
			// work channel. Cancellation granularity is deliberately one
			// parallel region — StepCtx polls ctx between regions, never
			// inside one.
			//lint:ignore ctx-propagation workers are guaranteed alive under the dispatch mutex; a region is the cancellation quantum
			p.work[t] <- fn
		}
		// Bounded by the region barrier: every worker runs fn exactly
		// once and calls Done; cancellation is checked between regions
		// (StepCtx).
		//lint:ignore ctx-propagation region barrier is bounded by the workers' Done; ctx is polled between regions
		p.wg.Wait()
	}
	if p.tel != nil {
		// Wall clock of the whole region; each worker's barrier wait is
		// the span between its own finish and the slowest worker's.
		wall := int64(region.Elapsed())
		for t := 0; t < p.threads; t++ {
			busy := p.busyNS[t]
			p.tel.AddWorker(t, time.Duration(busy), time.Duration(wall-busy))
		}
	}
}

// exec runs fn as worker tid of the current region, timing it when a
// recorder is attached.
func (p *Pool) exec(fn func(tid int), tid int) {
	if p.tel == nil {
		fn(tid)
		return
	}
	sp := p.tel.Span()
	fn(tid)
	p.busyNS[tid] = int64(sp.Elapsed())
}

// ParallelFor splits [0, n) into static contiguous chunks, one per
// worker, and runs body(start, end, tid) — the static-schedule
// `omp parallel for` the paper's Figs. 7/8 use.
func (p *Pool) ParallelFor(n int, body func(start, end, tid int)) {
	if n > 0 {
		p.loop(n, body, nil)
	}
}

// ParallelForDynamic runs body(k, tid) once for every k in [0, n). Each
// worker claims the next unclaimed index from a cursor on the pool
// until none is left, so a worker whose indices cost less takes more
// of them and the region ends when the work does, not when the worker
// dealt the heaviest share ends. Which worker runs an index depends on
// timing; the SDC sweep hands out one color's subdomains this way,
// whose writes are disjoint, so its sums do not depend on it.
func (p *Pool) ParallelForDynamic(n int, body func(k, tid int)) {
	if n > 0 {
		p.loop(n, nil, body)
	}
}

// loop runs one ParallelFor* call: it stores the loop for the workers
// under the dispatch mutex and dispatches the bound region of the one
// body given, ParallelFor's chunks or ParallelForDynamic's claims.
func (p *Pool) loop(n int, chunks func(start, end, tid int), claims func(k, tid int)) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.forN, p.forBody, p.dynBody, p.cursor = n, chunks, claims, 0
	if chunks != nil {
		p.dispatch(p.forRegion)
	} else {
		p.dispatch(p.dynRegion)
	}
	p.forBody, p.dynBody = nil, nil
}

// runChunk is ParallelFor's region: worker tid runs its chunk.
func (p *Pool) runChunk(tid int) {
	start, end := chunk(p.forN, p.threads, tid)
	if start < end {
		p.forBody(start, end, tid)
	}
}

// runClaims is ParallelForDynamic's region: worker tid claims indices
// until the cursor passes the end.
func (p *Pool) runClaims(tid int) {
	for {
		p.claimMu.Lock()
		k := p.cursor
		p.cursor++
		p.claimMu.Unlock()
		if k >= p.forN {
			return
		}
		p.dynBody(k, tid)
	}
}

// Close terminates the workers. The pool must not be used afterwards:
// any later Run/ParallelFor* panics (see Run). Close is idempotent and
// serializes against an in-flight Run — it blocks until the current
// parallel region has joined, so no worker can exit with a dispatched
// job half-taken (the race that used to wedge wg.Wait forever).
func (p *Pool) Close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.closed {
		p.closed = true
		close(p.done)
	}
}

// chunk returns the static block [start, end) of n items for worker
// tid of threads, balanced to within one item.
func chunk(n, threads, tid int) (start, end int) {
	base := n / threads
	rem := n % threads
	start = tid*base + min(tid, rem)
	size := base
	if tid < rem {
		size++
	}
	return start, start + size
}
