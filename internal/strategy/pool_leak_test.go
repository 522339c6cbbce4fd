package strategy

import (
	"runtime"
	"testing"
	"time"
)

// settleToGoroutineCount polls until the live goroutine count drops
// back to at most before, failing if it never settles. The generous
// deadline covers race-instrumented runs; the short step keeps the
// common case fast.
func settleToGoroutineCount(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines did not settle: %d live, want <= %d", runtime.NumGoroutine(), before)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestPoolCloseLeaksNoGoroutines is the dynamic half of the
// goroutine-leak cross-validation (see internal/flow): after Close,
// every worker the pool launched must be gone. The static
// goroutine-leak pass proves the same launches join in
// TestRealRepoShutdownPathsProveClean.
func TestPoolCloseLeaksNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()

	p := MustNewPool(4)
	var cells [64]float64
	p.ParallelFor(len(cells), func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			cells[i] += float64(i)
		}
	})
	p.Close()

	settleToGoroutineCount(t, before)
}

// TestPoolRepeatedLifecycleLeaksNoGoroutines stresses the create/use/
// close cycle: worker counts must not ratchet upward across pools.
func TestPoolRepeatedLifecycleLeaksNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		p := MustNewPool(3)
		p.ParallelForDynamic(32, func(_, _ int) {})
		p.Close()
	}
	settleToGoroutineCount(t, before)
}
