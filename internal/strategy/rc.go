package strategy

import (
	"sdcmd/internal/neighbor"
	"sdcmd/internal/vec"
)

// rcReducer is Redundant-Computations (the paper's last solution
// class): each thread owns a block of atoms and computes *all* of their
// interactions from a full neighbor list, writing only its own atoms.
// No synchronization at all — but every pair is evaluated twice and the
// full list doubles the neighbor-list memory, which is why Fig. 9 shows
// RC scaling near-linearly yet sitting ≈1.7× below SDC.
type rcReducer struct {
	half *neighbor.List
	full *neighbor.List
	pool *Pool
}

func (r *rcReducer) Kind() Kind   { return RC }
func (r *rcReducer) Threads() int { return r.pool.Threads() }

// PairWork is the doubled pair count: RC's defining cost.
func (r *rcReducer) PairWork() int { return r.full.Pairs() }

// WriteShape implements WriteShaper: each visit writes only out[i] (its
// j slot is a worker-private discard), and the ParallelFor blocks
// partition i across workers.
func (r *rcReducer) WriteShape() WriteShape { return WriteOwnerOnly }

// FullListBytes reports the extra neighbor-list storage RC carries
// beyond the half list.
func (r *rcReducer) FullListBytes() int {
	return (r.full.Pairs() - r.half.Pairs()) * 4
}

func (r *rcReducer) SweepScalar(out []float64, visit Visit[float64]) {
	rcSweep(r, out, visit)
}

func (r *rcReducer) SweepVector(out []vec.Vec3, visit Visit[vec.Vec3]) {
	rcSweep(r, out, visit)
}

// rcSweep walks each worker's block of full-list rows, adding atom i's
// side of every pair straight into out[i]; j's side goes to a worker
// discard slot that is never read. Declared once per worker, the slot
// lives on the heap because visit receives its address.
func rcSweep[T Elem](r *rcReducer, out []T, visit Visit[T]) {
	r.pool.ParallelFor(r.full.N(), func(start, end, _ int) {
		var discard T
		for i := start; i < end; i++ {
			oi := &out[i]
			for _, j := range r.full.Neighbors(i) {
				visit(int32(i), j, oi, &discard)
			}
		}
	})
}

func (r *rcReducer) ParallelForAtoms(body func(start, end, tid int)) {
	r.pool.ParallelFor(r.full.N(), body)
}
