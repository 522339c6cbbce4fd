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
	// scalar and vector are the two sweeps' worker bodies, bound once
	// in newSDCReducer.
	scalar sdcBody[float64]
	vector sdcBody[vec.Vec3]
}

// sdcBody is the worker body of one element type's color sweeps, bound
// once on the reducer as Pool binds its regions: sdcSweep stores the
// color's subdomains, out and terms beside it, so a sweep allocates
// nothing.
type sdcBody[T Elem] struct {
	r     *sdcReducer
	bufs  []rowBuf[T]
	subs  []int32
	out   []T
	terms Terms[T]
	run   func(k, tid int)
}

// claim walks the rows of the atoms of the color's k-th subdomain.
func (b *sdcBody[T]) claim(k, tid int) {
	buf := &b.bufs[tid]
	for _, i := range b.r.dec.Atoms(int(b.subs[k])) {
		pairRow(b.r.list, i, b.out, b.terms, buf)
	}
}

func newSDCReducer(cfg Config, bufs rowBufs) *sdcReducer {
	r := &sdcReducer{list: cfg.List, pool: cfg.Pool, dec: cfg.Decomp, tel: cfg.Telemetry}
	r.scalar = sdcBody[float64]{r: r, bufs: bufs.scalar}
	r.vector = sdcBody[vec.Vec3]{r: r, bufs: bufs.vector}
	r.scalar.run, r.vector.run = r.scalar.claim, r.vector.claim
	return r
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
	sdcSweep(r, &r.scalar, out, terms)
}

func (r *sdcReducer) SweepVector(out []vec.Vec3, terms Terms[vec.Vec3]) {
	sdcSweep(r, &r.vector, out, terms)
}

// sdcSweep runs the color loop: the workers claim each color's
// subdomains and walk their atoms' rows, writing out directly.
func sdcSweep[T Elem](r *sdcReducer, b *sdcBody[T], out []T, terms Terms[T]) {
	b.out, b.terms = out, terms
	for c := 0; c < r.dec.NumColors(); c++ {
		sp := r.tel.Span()
		b.subs = r.dec.ByColor[c]
		r.pool.ParallelForDynamic(len(b.subs), b.run)
		// Pool barrier here: the next color starts only when every
		// worker finished this one (paper §II.B step 3).
		r.barrier()
		r.tel.AddColor(c, sp.Elapsed())
	}
	b.subs, b.out, b.terms = nil, nil, nil
}

func (r *sdcReducer) ParallelForAtoms(body func(start, end, tid int)) {
	r.pool.ParallelFor(r.list.N(), body)
}
