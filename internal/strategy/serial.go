package strategy

import (
	"sdcmd/internal/neighbor"
	"sdcmd/internal/vec"
)

// serialReducer is the sequential baseline: the exact loop nest of the
// paper's Figs. 1 and 2, with the half-list symmetry and Newton's-third-
// law optimizations of §II.D already applied. Speedups in Table 1 and
// Fig. 9 are measured against this code path.
type serialReducer struct {
	list *neighbor.List
	bufs rowBufs
}

func (r *serialReducer) Kind() Kind    { return Serial }
func (r *serialReducer) Threads() int  { return 1 }
func (r *serialReducer) PairWork() int { return r.list.Pairs() }

// WriteShape implements WriteShaper: the sequential sweep adds each pair
// into out[i] and out[j] unsynchronized; with one worker no overlap can
// ever conflict.
func (r *serialReducer) WriteShape() WriteShape { return WriteSharedPair }

func (r *serialReducer) SweepScalar(out []float64, terms Terms[float64]) {
	serialSweep(r, out, terms, &r.bufs.scalar[0])
}

func (r *serialReducer) SweepVector(out []vec.Vec3, terms Terms[vec.Vec3]) {
	serialSweep(r, out, terms, &r.bufs.vector[0])
}

// serialSweep walks every row in atom order, writing out directly.
func serialSweep[T Elem](r *serialReducer, out []T, terms Terms[T], buf *rowBuf[T]) {
	n := r.list.N()
	for i := 0; i < n; i++ {
		pairRow(r.list, int32(i), out, terms, buf)
	}
}

func (r *serialReducer) ParallelForAtoms(body func(start, end, tid int)) {
	body(0, r.list.N(), 0)
}
