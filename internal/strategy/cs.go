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
}

func (r *csReducer) Kind() Kind    { return CS }
func (r *csReducer) Threads() int  { return r.pool.Threads() }
func (r *csReducer) PairWork() int { return r.list.Pairs() }

// WriteShape implements WriteShaper: every pair write happens inside
// the critical section, so overlapping slots are legal by construction.
func (r *csReducer) WriteShape() WriteShape { return WriteSyncedPair }

func (r *csReducer) SweepScalar(out []float64, visit Visit[float64]) {
	csSweep(r, out, visit)
}

func (r *csReducer) SweepVector(out []vec.Vec3, visit Visit[vec.Vec3]) {
	csSweep(r, out, visit)
}

// csSweep hands each visit two worker locals and adds them into out
// inside the critical section, so only the writes are serialized, not
// the pair arithmetic. The locals are declared once per worker: passed
// to visit, they live on the heap.
func csSweep[T Elem](r *csReducer, out []T, visit Visit[T]) {
	r.pool.ParallelFor(r.list.N(), func(start, end, _ int) {
		var oi, oj, zero T
		for i := start; i < end; i++ {
			for _, j := range r.list.Neighbors(i) {
				oi, oj = zero, zero
				visit(int32(i), j, &oi, &oj)
				r.mu.Lock()
				add(&out[i], &oi)
				add(&out[j], &oj)
				r.mu.Unlock()
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

// atomicAdd adds *v into *dst with one CAS loop per component.
func atomicAdd[T Elem](dst, v *T) {
	d := floats(dst)
	for k, x := range floats(v) {
		atomicAddFloat64(&d[k], x)
	}
}

func (r *atomicReducer) SweepScalar(out []float64, visit Visit[float64]) {
	atomicSweep(r, out, visit)
}

func (r *atomicReducer) SweepVector(out []vec.Vec3, visit Visit[vec.Vec3]) {
	atomicSweep(r, out, visit)
}

// atomicSweep is csSweep with the mutex replaced by per-component CAS
// adds of the worker locals.
func atomicSweep[T Elem](r *atomicReducer, out []T, visit Visit[T]) {
	r.pool.ParallelFor(r.list.N(), func(start, end, _ int) {
		var oi, oj, zero T
		for i := start; i < end; i++ {
			for _, j := range r.list.Neighbors(i) {
				oi, oj = zero, zero
				visit(int32(i), j, &oi, &oj)
				atomicAdd(&out[i], &oi)
				atomicAdd(&out[j], &oj)
			}
		}
	})
}

func (r *atomicReducer) ParallelForAtoms(body func(start, end, tid int)) {
	r.pool.ParallelFor(r.list.N(), body)
}
