//go:build !amd64

package potential

// batched is false off amd64, where Exps is its math.Exp loop.
const batched = false

func expsBatched(x []float64) { expsLoop(x) }
