// The joined/stoppable launch idioms the codebase uses; none of these
// may be flagged.
package leak

import "sync"

// Joined launches workers joined by a WaitGroup.
func Joined(n int, work func(int)) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			work(k)
		}(i)
	}
	wg.Wait()
}

// Signaled launches a goroutine that closes a completion channel.
func Signaled(work func()) chan struct{} {
	done := make(chan struct{})
	go func() {
		defer close(done)
		work()
	}()
	return done
}

// Stoppable launches a worker parked on a stop-channel select.
func Stoppable(jobs chan func(), stop chan struct{}) {
	go func() {
		for {
			select {
			case j := <-jobs:
				j()
			case <-stop:
				return
			}
		}
	}()
}

// Drainer ranges over a closable channel.
func Drainer(jobs chan func()) {
	go func() {
		for j := range jobs {
			j()
		}
	}()
}

// Handoff sends its result on a buffered channel the launcher
// receives: the watchdog shape.
func Handoff(f func() error) error {
	done := make(chan error, 1)
	go func() {
		done <- f()
	}()
	return <-done
}

// looper exercises evidence found through a named-method launch.
type looper struct {
	work chan func()
	stop chan struct{}
}

func (l *looper) loop() {
	for {
		select {
		case w := <-l.work:
			w()
		case <-l.stop:
			return
		}
	}
}

// Start launches the loop method; its stop-select is the evidence.
func (l *looper) Start() {
	go l.loop()
}

// JoinedGeneric launches an explicitly instantiated worker; the launch
// must resolve to worker's declaration, whose Done is the evidence.
func JoinedGeneric(items []int) {
	var wg sync.WaitGroup
	wg.Add(1)
	go worker[int](items, &wg)
	wg.Wait()
}

func worker[T any](items []T, wg *sync.WaitGroup) {
	defer wg.Done()
	_ = items
}
