package force

// Rows is a kernel type whose sweep reaches its allocating helper only
// through an explicitly instantiated call.
type Rows struct {
	Data [][]float64
}

// SweepScalar calls gatherRows[float64]: the call graph must resolve
// the instantiation to the generic declaration, making it hot.
func (r *Rows) SweepScalar(out []float64) {
	gatherRows[float64](r.Data, out)
}

// gatherRows allocates a scratch row per iteration — one finding.
func gatherRows[T float64 | float32](rows [][]T, out []T) {
	for i, row := range rows {
		buf := make([]T, len(row))
		copy(buf, row)
		out[i] += buf[0]
	}
}
