package strategy

import (
	"sdcmd/internal/core"
	"sdcmd/internal/neighbor"
	"sdcmd/internal/telemetry"
	"sdcmd/internal/vec"
)

// sdcReducer executes the paper's Figs. 7/8 schedule: an outer serial
// loop over colors; inside each color the subdomains of that color are
// distributed over the workers with the same strided `spart += colors`
// pattern, and each worker sweeps its subdomains' atoms with completely
// unsynchronized writes. The implicit barrier at the end of each
// Pool.Run is the only synchronization, exactly the "low synchronization
// cost" property §II.B claims. The parallel region (pool) persists
// across colors, mirroring the paper's hoisting of `#pragma omp
// parallel` outside the color loop to avoid refork costs.
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
}

func (r *sdcReducer) Kind() Kind    { return SDC }
func (r *sdcReducer) Threads() int  { return r.pool.Threads() }
func (r *sdcReducer) PairWork() int { return r.list.Pairs() }

// WriteShape implements WriteShaper: SDC workers write out[i] and
// out[j] with no synchronization — the coloring is the only guarantee,
// which is exactly what the dynamic check verifies.
func (r *sdcReducer) WriteShape() WriteShape { return WriteSharedPair }

func (r *sdcReducer) setPhaseHook(h func()) { r.phaseHook = h }

// barrier runs the phase hook after a color's pool join.
func (r *sdcReducer) barrier() {
	if r.phaseHook != nil {
		r.phaseHook()
	}
}

// Decomposition exposes the coloring for diagnostics.
func (r *sdcReducer) Decomposition() *core.Decomposition { return r.dec }

func (r *sdcReducer) SweepScalar(out []float64, visit ScalarVisit) {
	for c := 0; c < r.dec.NumColors(); c++ {
		sp := r.tel.Span()
		subs := r.dec.ByColor[c]
		r.pool.ParallelForStrided(len(subs), func(k, _ int) {
			s := int(subs[k])
			for _, i := range r.dec.Atoms(s) {
				for _, j := range r.list.Neighbors(int(i)) {
					ci, cj := visit(i, j)
					out[i] += ci
					out[j] += cj
				}
			}
		})
		// Pool barrier here: the next color starts only when every
		// worker finished this one (paper §II.B step 3).
		r.barrier()
		r.tel.AddColor(c, sp.Elapsed())
	}
}

func (r *sdcReducer) SweepVector(out []vec.Vec3, visit VectorVisit) {
	for c := 0; c < r.dec.NumColors(); c++ {
		sp := r.tel.Span()
		subs := r.dec.ByColor[c]
		r.pool.ParallelForStrided(len(subs), func(k, _ int) {
			s := int(subs[k])
			for _, i := range r.dec.Atoms(s) {
				for _, j := range r.list.Neighbors(int(i)) {
					f := visit(i, j)
					out[i][0] += f[0]
					out[i][1] += f[1]
					out[i][2] += f[2]
					out[j][0] -= f[0]
					out[j][1] -= f[1]
					out[j][2] -= f[2]
				}
			}
		})
		r.barrier()
		r.tel.AddColor(c, sp.Elapsed())
	}
}

func (r *sdcReducer) ParallelForAtoms(body func(start, end, tid int)) {
	r.pool.ParallelFor(r.list.N(), body)
}

// WriteSets returns, for each color, the set of atom indices each
// subdomain of that color writes during a sweep (its own atoms plus
// their half-list neighbors). The SDC safety theorem says write sets of
// same-color subdomains are pairwise disjoint; tests assert it.
func (r *sdcReducer) WriteSets(color int) []map[int32]struct{} {
	subs := r.dec.ByColor[color]
	sets := make([]map[int32]struct{}, len(subs))
	for k, s := range subs {
		set := make(map[int32]struct{})
		for _, i := range r.dec.Atoms(int(s)) {
			set[i] = struct{}{}
			for _, j := range r.list.Neighbors(int(i)) {
				set[j] = struct{}{}
			}
		}
		sets[k] = set
	}
	return sets
}
