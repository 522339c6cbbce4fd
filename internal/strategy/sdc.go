package strategy

import (
	"sdcmd/internal/core"
	"sdcmd/internal/neighbor"
	"sdcmd/internal/telemetry"
	"sdcmd/internal/vec"
)

// sdcReducer executes the paper's Figs. 7/8 schedule: an outer serial
// loop over colors; inside each color the workers claim the color's
// subdomains one at a time from a shared cursor (Pool.ParallelForDynamic,
// where the paper's `spart += colors` loop deals them out statically),
// and each worker sweeps its subdomains' atoms with completely
// unsynchronized writes. The implicit barrier at the end of each color
// is the only synchronization besides the claims, exactly the "low
// synchronization cost" property §II.B claims. The parallel region
// (pool) persists across colors, mirroring the paper's hoisting of
// `#pragma omp parallel` outside the color loop to avoid refork costs.
//
// The sums do not depend on which worker claims a subdomain: subdomains
// of one color write disjoint slots (each subdomain edge is at least
// twice the list's reach), each subdomain walks its rows in order, and
// each color ends in its barrier, so every slot receives the same
// addends in the same order on any number of workers.
type sdcReducer struct {
	list *neighbor.List
	pool *Pool
	dec  *core.Decomposition
	// tel, when set, accumulates per-color sweep wall time — the
	// §III.A decomposition of where a sweep spends its barriers.
	tel *telemetry.Recorder
	// phaseHook, when set (by CheckedReducer), runs serially after each
	// color's pool barrier.
	phaseHook func()
	bufs      rowBufs
}

func (r *sdcReducer) Kind() Kind    { return SDC }
func (r *sdcReducer) Threads() int  { return r.pool.Threads() }
func (r *sdcReducer) PairWork() int { return r.list.Pairs() }

// WriteShape implements WriteShaper: SDC workers add each pair into
// out[i] and out[j] with no synchronization — the coloring is the only
// guarantee, which is exactly what the dynamic check verifies.
func (r *sdcReducer) WriteShape() WriteShape { return WriteSharedPair }

func (r *sdcReducer) setPhaseHook(h func()) { r.phaseHook = h }

// barrier runs the phase hook after a color's pool join.
func (r *sdcReducer) barrier() {
	if r.phaseHook != nil {
		r.phaseHook()
	}
}

func (r *sdcReducer) SweepScalar(out []float64, terms Terms[float64]) {
	sdcSweep(r, out, terms, r.bufs.scalar)
}

func (r *sdcReducer) SweepVector(out []vec.Vec3, terms Terms[vec.Vec3]) {
	sdcSweep(r, out, terms, r.bufs.vector)
}

// sdcSweep runs the color loop: the workers claim each color's
// subdomains and walk their atoms' rows, writing out directly.
func sdcSweep[T Elem](r *sdcReducer, out []T, terms Terms[T], bufs []rowBuf[T]) {
	for c := 0; c < r.dec.NumColors(); c++ {
		sp := r.tel.Span()
		subs := r.dec.ByColor[c]
		r.pool.ParallelForDynamic(len(subs), func(k, tid int) {
			buf := &bufs[tid]
			for _, i := range r.dec.Atoms(int(subs[k])) {
				pairRow(r.list, i, out, terms, buf)
			}
		})
		// Pool barrier here: the next color starts only when every
		// worker finished this one (paper §II.B step 3).
		r.barrier()
		r.tel.AddColor(c, sp.Elapsed())
	}
}

func (r *sdcReducer) ParallelForAtoms(body func(start, end, tid int)) {
	r.pool.ParallelFor(r.list.N(), body)
}
