// Package strategy is a minimal stand-in for the repo's worker pool:
// the dispatch method set and worker-body parameter conventions match
// the real one, execution is serial.
package strategy

// Pool fans work out to a fixed set of workers.
type Pool struct{ threads int }

// NewPool returns a pool with at least one worker.
func NewPool(threads int) *Pool {
	if threads < 1 {
		threads = 1
	}
	return &Pool{threads: threads}
}

// Threads reports the worker count.
func (p *Pool) Threads() int { return p.threads }

// Run hands each worker its id.
func (p *Pool) Run(fn func(tid int)) { fn(0) }

// ParallelFor gives each worker one contiguous [start, end) block.
func (p *Pool) ParallelFor(n int, body func(start, end, tid int)) { body(0, n, 0) }

// ParallelForAtoms is ParallelFor with atom-count-aware splitting.
func (p *Pool) ParallelForAtoms(n int, body func(start, end, tid int)) { body(0, n, 0) }

// ParallelForStrided hands out single indices round-robin.
func (p *Pool) ParallelForStrided(n int, body func(k, tid int)) {
	for k := 0; k < n; k++ {
		body(k, 0)
	}
}
