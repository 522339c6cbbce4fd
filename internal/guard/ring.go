package guard

import (
	"sdcmd/internal/md"
	"sdcmd/internal/xyz"
)

// snapRing is a bounded ring of validated snapshots: only states that
// passed the invariant checks are pushed, so the newest entry is always
// a legitimate rollback target. Older entries are kept in case repeated
// faults force the supervisor further back.
type snapRing struct {
	buf  []*xyz.Snapshot
	head int // next write slot
	n    int // live entries, <= len(buf)
}

func newSnapRing(size int) *snapRing {
	return &snapRing{buf: make([]*xyz.Snapshot, size)}
}

// push stores a snapshot, evicting the oldest when full.
func (r *snapRing) push(s *xyz.Snapshot) {
	r.buf[r.head] = s
	r.head = (r.head + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	}
}

// capture pushes a snapshot of sys at step. When the ring is full it
// copies into the snapshot it evicts, whose Pos and Vel already have
// the atom count, so a supervised run allocates no snapshot once its
// ring has filled.
func (r *snapRing) capture(sys *md.System, step int) {
	s := r.buf[r.head] // nil unless the ring is full
	if s == nil {
		s = xyz.FromSystem(sys, "Fe", "", step)
	} else {
		s.Box, s.Mass, s.Step = sys.Box, sys.Mass, step
		s.Pos = append(s.Pos[:0], sys.Pos...)
		s.Vel = append(s.Vel[:0], sys.Vel...)
	}
	r.push(s)
}

// last returns the newest snapshot, or nil when empty.
func (r *snapRing) last() *xyz.Snapshot {
	if r.n == 0 {
		return nil
	}
	return r.buf[(r.head-1+len(r.buf))%len(r.buf)]
}

// dropLast discards the newest snapshot (used when a restored state
// immediately faults again and the supervisor needs to reach further
// back).
func (r *snapRing) dropLast() {
	if r.n == 0 {
		return
	}
	r.head = (r.head - 1 + len(r.buf)) % len(r.buf)
	r.buf[r.head] = nil
	r.n--
}

// len returns the number of live snapshots.
func (r *snapRing) len() int { return r.n }
