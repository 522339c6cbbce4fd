// Package app holds worker-body fixtures outside any approved path.
package app

import "fixture/internal/strategy"

// Pair is one interacting (i, j) couple.
type Pair struct{ I, J int32 }

// addForce scatters one pair's contribution into the shared force
// array; neither index derives from the worker identity, so reaching
// this helper from a worker body races. The findings must land on the
// two write lines below, not at the call site.
func addForce(force [][3]float64, i, j int32) {
	force[i][0] += 1
	force[j][0] -= 1
}

// AccumulateForces fans pairs out across workers but lets addForce
// write force[] by pair endpoints — the interprocedural leak case.
func AccumulateForces(pool *strategy.Pool, force [][3]float64, pairs []Pair) {
	pool.ParallelForDynamic(len(pairs), func(k, tid int) {
		pr := pairs[k]
		addForce(force, pr.I, pr.J)
	})
}
