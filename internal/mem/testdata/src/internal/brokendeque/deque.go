// Package brokendeque seeds the publication bugs the
// publication-safety pass exists for: the owner-push/steal-half deque
// protocol with the store/write order inverted on the producer side
// and the load/read order inverted on the consumer side. The same two
// bugs are reproduced dynamically by TestBrokenDequeCaughtDynamically
// in internal/mem — the cross-validation test pins that whatever the
// dynamic detector catches, this pass flags statically.
package brokendeque

import "sync/atomic"

// Deque is the broken half: Push publishes tail before writing the
// slot, Steal reads a slot before loading the bounds that publish it.
type Deque struct {
	head atomic.Int64
	tail atomic.Int64
	buf  []atomic.Int32
	mask int64
}

func New(n int) *Deque {
	d := &Deque{buf: make([]atomic.Int32, n)}
	d.mask = int64(n - 1)
	return d
}

// Push publishes the incremented tail first: a thief that observes it
// reads whatever stale value the slot held before.
func (d *Deque) Push(v int32) {
	t := d.tail.Load()
	d.tail.Store(t + 1)
	d.buf[t&d.mask].Store(v)
}

// Take is the owner-side pop with the correct load-then-read order —
// it is the consumer evidence from which the pass infers that head
// and tail publish buf.
func (d *Deque) Take() (int32, bool) {
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

// Steal copies a slot before loading head or tail: the copy is not
// ordered after the producer's slot write.
func (d *Deque) Steal() (int32, bool) {
	v := d.buf[0].Load()
	h := d.head.Load()
	t := d.tail.Load()
	if h >= t {
		return 0, false
	}
	if d.head.CompareAndSwap(h, h+1) {
		return v, true
	}
	return 0, false
}
