package mem

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// brokenDeque reproduces, in executable form, the two publication bugs
// seeded in the testdata brokendeque fixture: pushBug publishes tail
// before the slot write; stealBug reads a slot before loading the
// bounds that publish it. Slots are atomic so the race detector stays
// quiet about the individual accesses — the bug is the protocol order,
// observable as a stale (zero) sentinel where a published value must
// be nonzero.
type brokenDeque struct {
	head atomic.Int64
	tail atomic.Int64
	buf  []atomic.Int32
	mask int64
}

func newBrokenDeque(n int) *brokenDeque {
	return &brokenDeque{buf: make([]atomic.Int32, n), mask: int64(n - 1)}
}

// pushBug publishes the incremented tail first, then yields to widen
// the window before the slot write lands.
func (d *brokenDeque) pushBug(v int32) {
	t := d.tail.Load()
	d.tail.Store(t + 1)
	runtime.Gosched()
	d.buf[t&d.mask].Store(v)
}

// pushOK is the correct producer order, used to isolate the
// consumer-side bug.
func (d *brokenDeque) pushOK(v int32) {
	t := d.tail.Load()
	d.buf[t&d.mask].Store(v)
	d.tail.Store(t + 1)
}

// stealOK is the correct consumer order, used to isolate the
// producer-side bug.
func (d *brokenDeque) stealOK() (int32, bool) {
	h := d.head.Load()
	t := d.tail.Load()
	if h >= t {
		return 0, false
	}
	v := d.buf[h&d.mask].Load()
	if d.head.CompareAndSwap(h, h+1) {
		return v, true
	}
	return 0, false
}

// stealBug copies the slot before loading the bounds that publish it.
func (d *brokenDeque) stealBug() (int32, bool) {
	h := d.head.Load()
	v := d.buf[h&d.mask].Load()
	runtime.Gosched()
	t := d.tail.Load()
	if h >= t {
		return 0, false
	}
	if d.head.CompareAndSwap(h, h+1) {
		return v, true
	}
	return 0, false
}

// TestBrokenDequeCaughtDynamically is the dynamic half of the
// static ⊇ dynamic cross-validation (TestStaticCatchesBrokenDeque is
// the static half): both publication bugs the publication-safety pass
// flags on the brokendeque fixture must also be observable at runtime.
// Pushed values are all nonzero, so a thief that returns zero read a
// slot the protocol had not published.
func TestBrokenDequeCaughtDynamically(t *testing.T) {
	run := func(name string, push func(*brokenDeque, int32), steal func(*brokenDeque) (int32, bool)) {
		t.Run(name, func(t *testing.T) {
			const cap, rounds = 64, 20000
			for round := 0; round < rounds; round++ {
				d := newBrokenDeque(cap)
				done := make(chan struct{})
				ready := make(chan struct{})
				var stale atomic.Bool
				go func() {
					defer close(done)
					close(ready) // thief is running before the first push
					for taken := 0; taken < cap; {
						v, ok := steal(d)
						if !ok {
							runtime.Gosched()
							continue
						}
						if v == 0 {
							stale.Store(true)
						}
						taken++
					}
				}()
				<-ready
				for i := 1; i <= cap; i++ {
					push(d, int32(i))
					// Yield between pushes so the thief interleaves at the
					// frontier, where the stale window opens.
					runtime.Gosched()
				}
				<-done
				if stale.Load() {
					return // bug observed: dynamic detector caught it
				}
			}
			t.Fatalf("%s: publication bug never observed in %d rounds — dynamic coverage lost", name, rounds)
		})
	}
	run("producer-publishes-before-write", (*brokenDeque).pushBug, (*brokenDeque).stealOK)
	run("consumer-reads-before-load", (*brokenDeque).pushOK, (*brokenDeque).stealBug)
}
