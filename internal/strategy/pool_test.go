package strategy

import (
	"sync"
	"testing"
	"time"

	"sdcmd/internal/telemetry"
)

// TestPoolRunAfterClosePanics pins the lifecycle contract: Run on a
// closed pool must fail fast with a panic, never deadlock on the
// retired workers. The timeout guard turns a regression back into the
// old deadlock into a test failure instead of a hung suite.
func TestPoolRunAfterClosePanics(t *testing.T) {
	p := MustNewPool(2)
	p.Close()
	done := make(chan interface{}, 1)
	go func() {
		defer func() { done <- recover() }()
		p.Run(func(int) {})
	}()
	select {
	case r := <-done:
		if r == nil {
			t.Fatal("Run after Close returned normally; want a panic")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run after Close hung for 5s — the fail-fast panic regressed to the old deadlock")
	}
}

// TestPoolParallelForAfterClosePanics covers the helpers built on Run.
func TestPoolParallelForAfterClosePanics(t *testing.T) {
	p := MustNewPool(2)
	p.Close()
	for name, call := range map[string]func(){
		"ParallelFor":        func() { p.ParallelFor(8, func(int, int, int) {}) },
		"ParallelForDynamic": func() { p.ParallelForDynamic(8, func(int, int) {}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s after Close did not panic", name)
				}
			}()
			call()
		}()
	}
}

// TestPoolRunCloseRace hammers concurrent Run and Close; the dispatch
// mutex must serialize them so no region is half-dispatched when the
// workers exit. Run under -race this also checks the closed-flag
// synchronization.
func TestPoolRunCloseRace(t *testing.T) {
	for i := 0; i < 30; i++ {
		p := MustNewPool(4)
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			// A post-Close Run panics by contract; that ends the loop.
			defer func() { _ = recover() }()
			for {
				p.Run(func(int) {})
			}
		}()
		time.Sleep(500 * time.Microsecond)
		p.Close()
		p.Close() // idempotent
		wg.Wait()
	}
}

// TestPoolCloseWaitsForInflightRun asserts Close blocks until the
// current region joins, so its body never observes dead workers.
func TestPoolCloseWaitsForInflightRun(t *testing.T) {
	p := MustNewPool(3)
	started := make(chan struct{})
	release := make(chan struct{})
	ran := make(chan int, 3)
	go func() {
		p.Run(func(tid int) {
			if tid == 0 {
				close(started)
			}
			<-release
			ran <- tid
		})
	}()
	<-started
	closed := make(chan struct{})
	go func() {
		p.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Close returned while a region was still running")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return after the region joined")
	}
	if len(ran) != 3 {
		t.Fatalf("region joined with %d of 3 workers done", len(ran))
	}
}

// TestPoolWorkerTelemetry checks the busy/wait accounting: a
// deliberately imbalanced region must show the idle workers waiting and
// every utilization in (0, 1].
func TestPoolWorkerTelemetry(t *testing.T) {
	rec := telemetry.NewRecorder()
	p := MustNewPool(2)
	defer p.Close()
	p.SetTelemetry(rec)
	for i := 0; i < 3; i++ {
		p.Run(func(tid int) {
			if tid == 0 {
				time.Sleep(20 * time.Millisecond)
			} else {
				time.Sleep(time.Millisecond)
			}
		})
	}
	m := rec.Snapshot()
	if len(m.Workers) != 2 {
		t.Fatalf("got %d worker stats, want 2", len(m.Workers))
	}
	for _, w := range m.Workers {
		if w.BusySeconds <= 0 {
			t.Errorf("worker %d: non-positive busy time %g", w.Worker, w.BusySeconds)
		}
		if w.Utilization <= 0 || w.Utilization > 1 {
			t.Errorf("worker %d: utilization %g outside (0, 1]", w.Worker, w.Utilization)
		}
	}
	// Worker 0 was the slow one: it should be busier and wait less than
	// worker 1.
	if m.Workers[0].BusySeconds <= m.Workers[1].BusySeconds {
		t.Errorf("slow worker busy %g <= fast worker busy %g",
			m.Workers[0].BusySeconds, m.Workers[1].BusySeconds)
	}
	if m.Workers[1].WaitSeconds <= m.Workers[0].WaitSeconds {
		t.Errorf("fast worker wait %g <= slow worker wait %g",
			m.Workers[1].WaitSeconds, m.Workers[0].WaitSeconds)
	}
}
