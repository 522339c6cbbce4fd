package force

// Engine picks its density kernel through a func-typed field set from a
// method expression in a package-level table, the shape of the real
// engine's terms: the field call is the only route from Compute to
// densityTerms.
type Engine struct {
	terms terms
	rho   []float64
	rows  [][]int32
}

type terms struct {
	density func(*Engine) func(i int32, js []int32)
}

var singleTerms = terms{density: (*Engine).densityTerms}

// NewEngine selects the single-species table.
func NewEngine(rows [][]int32) *Engine {
	return &Engine{terms: singleTerms, rho: make([]float64, len(rows)), rows: rows}
}

// Compute sweeps every row through the selected kernel.
func (e *Engine) Compute() {
	kernel := e.terms.density(e)
	for i, js := range e.rows {
		kernel(int32(i), js)
	}
}

// densityTerms returns a kernel that allocates per pair — one finding,
// on the literal the builder returns.
func (e *Engine) densityTerms() func(i int32, js []int32) {
	return func(i int32, js []int32) {
		for range js {
			buf := make([]float64, 1)
			e.rho[i] += buf[0]
		}
	}
}
