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
	full *neighbor.List
	pool *Pool
	bufs rowBufs
}

func (r *rcReducer) Kind() Kind   { return RC }
func (r *rcReducer) Threads() int { return r.pool.Threads() }

// PairWork is the doubled pair count: RC's defining cost.
func (r *rcReducer) PairWork() int { return r.full.Pairs() }

// WriteShape implements WriteShaper: each pair is added into out[i]
// only, and the ParallelFor blocks partition i across workers.
func (r *rcReducer) WriteShape() WriteShape { return WriteOwnerOnly }

func (r *rcReducer) SweepScalar(out []float64, terms Terms[float64]) {
	rcSweep(r, out, terms, r.bufs.scalar)
}

func (r *rcReducer) SweepVector(out []vec.Vec3, terms Terms[vec.Vec3]) {
	rcSweep(r, out, terms, r.bufs.vector)
}

// rcSweep walks each worker's block of full-list rows and adds atom i's
// side of every pair, ci, into out[i]; j's side is never read.
func rcSweep[T Elem](r *rcReducer, out []T, terms Terms[T], bufs []rowBuf[T]) {
	r.pool.ParallelFor(r.full.N(), func(start, end, tid int) {
		buf := &bufs[tid]
		for i := start; i < end; i++ {
			oi, row := &out[i], r.full.Neighbors(i)
			for len(row) > 0 {
				js, ci, _ := buf.fill(terms, int32(i), row)
				row = row[len(js):]
				for k := range ci {
					add(oi, &ci[k])
				}
			}
		}
	})
}

func (r *rcReducer) ParallelForAtoms(body func(start, end, tid int)) {
	r.pool.ParallelFor(r.full.N(), body)
}
