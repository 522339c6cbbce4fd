package strategy

import (
	"sync"

	"sdcmd/internal/neighbor"
	"sdcmd/internal/vec"
)

// sapReducer is Shared-Array-Privatization (the paper's second solution
// class, after Hall et al.): every thread accumulates into a private
// copy of the reduction array, then the copies are merged into the
// shared array inside a critical section — the paper's §IV explanation
// for why SAP degrades past 8 cores (the merge serializes and the
// private copies grow memory linearly with the thread count, competing
// for cache).
type sapReducer struct {
	list *neighbor.List
	pool *Pool

	mu sync.Mutex
	// Cached private arrays, threads × N, reused across sweeps so the
	// steady-state memory overhead (threads copies of the reduction
	// array) is visible to the memory accounting rather than the GC.
	privScalar [][]float64
	privVector [][]vec.Vec3
	bufs       rowBufs
}

func (r *sapReducer) Kind() Kind    { return SAP }
func (r *sapReducer) Threads() int  { return r.pool.Threads() }
func (r *sapReducer) PairWork() int { return r.list.Pairs() }

// WriteShape implements WriteShaper: each worker adds its pairs into
// its thread-private copy; the merge into the shared array is under the
// mutex.
func (r *sapReducer) WriteShape() WriteShape { return WritePrivatePair }

// buffers returns one private copy of the reduction array per worker,
// reusing *priv unless the thread or atom count changed.
func buffers[T Elem](priv *[][]T, threads, n int) [][]T {
	if len(*priv) != threads || (threads > 0 && len((*priv)[0]) != n) {
		*priv = make([][]T, threads)
		for t := range *priv {
			//lint:ignore hot-loop buffers are rebuilt only when the thread or atom count changes, then reused every sweep
			(*priv)[t] = make([]T, n)
		}
	}
	return *priv
}

func (r *sapReducer) SweepScalar(out []float64, terms Terms[float64]) {
	sapSweep(r, &r.privScalar, out, terms, r.bufs.scalar)
}

func (r *sapReducer) SweepVector(out []vec.Vec3, terms Terms[vec.Vec3]) {
	sapSweep(r, &r.privVector, out, terms, r.bufs.vector)
}

// sapSweep has each worker zero its private copy, walk its block of
// rows into it, and merge the copy into out.
func sapSweep[T Elem](r *sapReducer, priv *[][]T, out []T, terms Terms[T], rows []rowBuf[T]) {
	n := r.list.N()
	bufs := buffers(priv, r.pool.Threads(), n)
	r.pool.Run(func(tid int) {
		p, buf := bufs[tid], &rows[tid]
		clear(p)
		start, end := chunk(n, r.pool.Threads(), tid)
		for i := start; i < end; i++ {
			pairRow(r.list, int32(i), p, terms, buf)
		}
		// Merge under the critical section, as the paper describes:
		// "updating shared array must be done in a critical section".
		r.mu.Lock()
		for k := range p {
			add(&out[k], &p[k])
		}
		r.mu.Unlock()
	})
}

func (r *sapReducer) ParallelForAtoms(body func(start, end, tid int)) {
	r.pool.ParallelFor(r.list.N(), body)
}
