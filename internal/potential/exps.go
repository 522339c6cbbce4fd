package potential

import "math"

// Exps replaces every x[k] with math.Exp(x[k]), bit for bit, for every
// input and on every platform.
//
// The analytic kernels of internal/force call it once per chunk of a
// neighbor row in place of one math.Exp per pair. On amd64 with AVX2
// and FMA it runs, four lanes per instruction, the operations math.Exp
// runs on one (see exps_amd64.go); elsewhere, and wherever that body
// cannot match math.Exp, it is a math.Exp loop.
func Exps(x []float64) {
	if batched {
		expsBatched(x)
		return
	}
	expsLoop(x)
}

// expsLoop is the portable Exps: one math.Exp per element.
func expsLoop(x []float64) {
	for k, v := range x {
		x[k] = math.Exp(v)
	}
}
