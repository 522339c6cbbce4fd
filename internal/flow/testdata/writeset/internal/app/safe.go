package app

import "fixture/internal/strategy"

// SafePatterns exercises every confinement idiom the analyzer must
// prove: block-indexed writes, tid slots, privatized per-thread
// buffers, worker-local allocation, and claimed indices. It must
// produce zero findings.
func SafePatterns(pool *strategy.Pool, acc []float64, hist []int, priv [][]float64) {
	pool.ParallelFor(len(acc), func(start, end, tid int) {
		for i := start; i < end; i++ {
			acc[i] += 1
		}
		hist[tid]++
		p := priv[tid]
		for k := range p {
			p[k] = 0
		}
		scratch := make([]float64, 8)
		for i := range scratch {
			scratch[i] = 1
		}
		_ = scratch
	})
	pool.ParallelForDynamic(len(acc), func(k, tid int) {
		acc[k] += float64(tid)
	})
	pool.Run(func(tid int) {
		hist[tid] = 0
	})
}
