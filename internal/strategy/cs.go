package strategy

import (
	"math"
	"sync"
	"sync/atomic"
	"unsafe"

	"sdcmd/internal/neighbor"
	"sdcmd/internal/vec"
)

// csReducer is the paper's first solution class in its simplest form:
// iterations are split over threads and every update of the shared
// reduction array is wrapped in one critical section. The paper's §IV
// finding — "CS method achieves lowest efficiency … not feasible on
// multi-core architectures" — comes from exactly this serialization.
type csReducer struct {
	list *neighbor.List
	pool *Pool
	mu   sync.Mutex
	bufs rowBufs
}

func (r *csReducer) Kind() Kind    { return CS }
func (r *csReducer) Threads() int  { return r.pool.Threads() }
func (r *csReducer) PairWork() int { return r.list.Pairs() }

// WriteShape implements WriteShaper: every pair is added into out[i] and
// out[j] inside the critical section, so overlapping slots are legal by
// construction.
func (r *csReducer) WriteShape() WriteShape { return WriteSyncedPair }

func (r *csReducer) SweepScalar(out []float64, terms Terms[float64]) {
	csSweep(r, out, terms, r.bufs.scalar)
}

func (r *csReducer) SweepVector(out []vec.Vec3, terms Terms[vec.Vec3]) {
	csSweep(r, out, terms, r.bufs.vector)
}

// csSweep evaluates each row chunk into the worker's scratch and adds it
// into out one pair per critical section, so only the writes are
// serialized, not the pair arithmetic, and the lock is taken once per
// pair as in the paper.
func csSweep[T Elem](r *csReducer, out []T, terms Terms[T], bufs []rowBuf[T]) {
	r.pool.ParallelFor(r.list.N(), func(start, end, tid int) {
		buf := &bufs[tid]
		for i := start; i < end; i++ {
			row := r.list.Neighbors(i)
			for len(row) > 0 {
				js, ci, cj := buf.fill(terms, int32(i), row)
				row = row[len(js):]
				for k := range js {
					r.mu.Lock()
					addRow(out, int32(i), js[k:k+1], ci[k:k+1], cj[k:k+1])
					r.mu.Unlock()
				}
			}
		}
	})
}

func (r *csReducer) ParallelForAtoms(body func(start, end, tid int)) {
	r.pool.ParallelFor(r.list.N(), body)
}

// atomicReducer is the lock-free flavor of the first solution class:
// each float64 accumulation is a compare-and-swap loop (the OpenMP
// `#pragma omp atomic` analogue). Cheaper than a mutex but still pays a
// cache-line ping-pong per update.
type atomicReducer struct {
	list *neighbor.List
	pool *Pool
	bufs rowBufs
}

func (r *atomicReducer) Kind() Kind    { return AtomicCS }
func (r *atomicReducer) Threads() int  { return r.pool.Threads() }
func (r *atomicReducer) PairWork() int { return r.list.Pairs() }

// WriteShape implements WriteShaper: every accumulation is a CAS loop,
// so overlapping slots are legal by construction.
func (r *atomicReducer) WriteShape() WriteShape { return WriteSyncedPair }

// atomicAddFloat64 adds v to *addr with a CAS loop.
func atomicAddFloat64(addr *float64, v float64) {
	bits := (*uint64)(unsafe.Pointer(addr))
	for {
		old := atomic.LoadUint64(bits)
		new_ := math.Float64bits(math.Float64frombits(old) + v)
		if atomic.CompareAndSwapUint64(bits, old, new_) {
			return
		}
	}
}

// atomicAddRow is addRow with one CAS loop per component of every
// update.
func atomicAddRow[T Elem](out []T, i int32, js []int32, ci, cj []T) {
	switch o := any(out).(type) {
	case []float64:
		ci, cj := any(ci).([]float64)[:len(js)], any(cj).([]float64)[:len(js)]
		for k, j := range js {
			atomicAddFloat64(&o[i], ci[k])
			atomicAddFloat64(&o[j], cj[k])
		}
	case []vec.Vec3:
		ci := any(ci).([]vec.Vec3)[:len(js)]
		for k, j := range js {
			for c, x := range ci[k] {
				atomicAddFloat64(&o[i][c], x)
				atomicAddFloat64(&o[j][c], -x)
			}
		}
	}
}

func (r *atomicReducer) SweepScalar(out []float64, terms Terms[float64]) {
	atomicSweep(r, out, terms, r.bufs.scalar)
}

func (r *atomicReducer) SweepVector(out []vec.Vec3, terms Terms[vec.Vec3]) {
	atomicSweep(r, out, terms, r.bufs.vector)
}

// atomicSweep is csSweep with the mutex replaced by per-component CAS
// adds.
func atomicSweep[T Elem](r *atomicReducer, out []T, terms Terms[T], bufs []rowBuf[T]) {
	r.pool.ParallelFor(r.list.N(), func(start, end, tid int) {
		buf := &bufs[tid]
		for i := start; i < end; i++ {
			row := r.list.Neighbors(i)
			for len(row) > 0 {
				js, ci, cj := buf.fill(terms, int32(i), row)
				row = row[len(js):]
				atomicAddRow(out, int32(i), js, ci, cj)
			}
		}
	})
}

func (r *atomicReducer) ParallelForAtoms(body func(start, end, tid int)) {
	r.pool.ParallelFor(r.list.N(), body)
}
