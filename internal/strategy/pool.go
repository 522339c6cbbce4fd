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
// repeated thread creation).
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

	// tel, when set, receives per-worker busy/barrier-wait time for
	// every parallel region; busyNS is the per-region scratch the
	// workers fill (worker t writes slot t only; the region's WaitGroup
	// join orders those writes before the dispatcher reads them).
	tel    *telemetry.Recorder
	busyNS []int64
}

// NewPool starts threads workers. threads must be >= 1.
func NewPool(threads int) (*Pool, error) {
	if threads < 1 {
		return nil, fmt.Errorf("strategy: pool needs >= 1 thread, got %d", threads)
	}
	p := &Pool{
		threads: threads,
		work:    make([]chan func(tid int), threads),
		done:    make(chan struct{}),
	}
	for t := 0; t < threads; t++ {
		p.work[t] = make(chan func(tid int))
		go p.worker(t)
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
			fn(tid)
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
	// and a post-Close Run fails here instead of blocking forever on
	// the unbuffered work channels.
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		//lint:ignore no-panic lifecycle violation (Run after Close) would otherwise deadlock forever; failing fast is the documented contract
		panic("strategy: Pool.Run called after Close (pool workers have exited)")
	}
	body := fn
	var region telemetry.Span
	if p.tel != nil {
		region = p.tel.Span()
		body = func(tid int) {
			sp := p.tel.Span()
			fn(tid)
			p.busyNS[tid] = int64(sp.Elapsed())
		}
	}
	p.wg.Add(p.threads)
	for t := 0; t < p.threads; t++ {
		// The send always completes: the dispatch mutex guarantees the
		// workers are alive (Close blocks on it, post-Close Run panics
		// above), and every worker is parked on its work channel.
		// Cancellation granularity is deliberately one parallel region —
		// StepCtx polls ctx between regions, never inside one.
		//lint:ignore ctx-propagation workers are guaranteed alive under the dispatch mutex; a region is the cancellation quantum
		p.work[t] <- body
	}
	// Bounded by the region barrier: every worker runs body exactly once
	// and calls Done; cancellation is checked between regions (StepCtx).
	//lint:ignore ctx-propagation region barrier is bounded by the workers' Done; ctx is polled between regions
	p.wg.Wait()
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

// ParallelFor splits [0, n) into static contiguous chunks, one per
// worker, and runs body(start, end, tid) — the static-schedule
// `omp parallel for` the paper's Figs. 7/8 use.
func (p *Pool) ParallelFor(n int, body func(start, end, tid int)) {
	if n <= 0 {
		return
	}
	p.Run(func(tid int) {
		start, end := chunk(n, p.threads, tid)
		if start < end {
			body(start, end, tid)
		}
	})
}

// ParallelForStrided distributes indices round-robin (index k goes to
// worker k mod threads); subdomain sweeps use it so neighbouring
// subdomains land on different workers.
func (p *Pool) ParallelForStrided(n int, body func(k, tid int)) {
	if n <= 0 {
		return
	}
	p.Run(func(tid int) {
		for k := tid; k < n; k += p.threads {
			body(k, tid)
		}
	})
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
