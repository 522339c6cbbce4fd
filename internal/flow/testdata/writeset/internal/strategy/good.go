package strategy

// SDCish mirrors a real reducer: the scatter to out[j] is only safe
// through the coloring argument, which the analyzer cannot see. The
// file lives under the approved path, so sdcvet must skip it.
type SDCish struct {
	Pool  *Pool
	Neigh [][]int32
}

// SweepScalar accumulates pair terms into out without worker-local
// confinement — licensed here, and only here, by the SDC schedule.
func (r *SDCish) SweepScalar(out []float64, visit func(i, j int32) (float64, float64)) {
	r.Pool.ParallelForDynamic(len(r.Neigh), func(k, tid int) {
		for _, j := range r.Neigh[k] {
			ci, cj := visit(int32(k), j)
			out[k] += ci
			out[j] += cj
		}
	})
}
