package strategy

import (
	"fmt"
	"runtime"
	"sort"
	"sync"

	"sdcmd/internal/vec"
)

// WriteShape declares which reduction-array slots a strategy writes for
// each pair, and under what protection — the information the dynamic
// race check needs to interpret a sweep. Under the Terms contract the
// kernels write only the strategy's scratch and every write to the
// reduction array is the strategy's own, so the shape describes those
// writes. Shapes are declared by each reducer (via WriteShaper); a
// wrapper that finds no declaration assumes the most conservative shape.
type WriteShape int

const (
	// WriteSharedPair: the strategy adds pair (i, j) into out[i] and
	// out[j] themselves with no synchronization. Safe only if no two
	// concurrent workers ever touch the same slot in the same phase —
	// the SDC §II.B claim.
	WriteSharedPair WriteShape = iota
	// WriteSyncedPair: the strategy adds pair (i, j) into out[i] and
	// out[j] under a mutex or atomic CAS, so overlapping writes are
	// legal (CS family).
	WriteSyncedPair
	// WritePrivatePair: the strategy adds pair (i, j) into slots i and
	// j of a thread-private copy; the merge is separately synchronized
	// (SAP).
	WritePrivatePair
	// WriteOwnerOnly: the strategy adds pair (i, j) into out[i] only,
	// and each i belongs to exactly one worker's block (RC).
	WriteOwnerOnly
)

// String names the shape for reports.
func (s WriteShape) String() string {
	switch s {
	case WriteSharedPair:
		return "shared-pair"
	case WriteSyncedPair:
		return "synced-pair"
	case WritePrivatePair:
		return "private-pair"
	case WriteOwnerOnly:
		return "owner-only"
	}
	return fmt.Sprintf("WriteShape(%d)", int(s))
}

// WriteShaper is implemented by reducers that declare their write shape.
type WriteShaper interface {
	WriteShape() WriteShape
}

// phaseHooker is implemented by reducers whose sweeps contain internal
// barriers (SDC's color loop); the hook runs serially after each
// barrier, letting a checker close the current write-set phase.
type phaseHooker interface {
	setPhaseHook(func())
}

// RaceConflict is one detected violation: two distinct workers wrote
// the same reduction slot within the same barrier-delimited phase of
// the same sweep, with no declared synchronization.
type RaceConflict struct {
	// Sweep counts sweeps since construction/Reset; Kind is "scalar" or
	// "vector".
	Sweep int
	Kind  string
	// Phase is the barrier-delimited interval within the sweep (for SDC
	// the color index; 0 for single-phase sweeps).
	Phase int
	// Slot is the contended reduction-array index (atom index).
	Slot int32
	// FirstWorker/SecondWorker are dense per-sweep worker ids (the
	// identity of the ids varies with scheduling; the conflict set does
	// not).
	FirstWorker, SecondWorker int
}

func (c RaceConflict) String() string {
	return fmt.Sprintf("sweep %d (%s) phase %d: slot %d written by workers %d and %d",
		c.Sweep, c.Kind, c.Phase, c.Slot, c.FirstWorker, c.SecondWorker)
}

// CheckedReducer decorates a Reducer with a dynamic write-set check: it
// observes every pair the real sweeps evaluate and records which worker
// wrote which reduction slot in which phase. For shapes that synchronize
// (synced-pair) or privatize (private-pair) their writes the check
// passes vacuously; for shared-pair and owner-only shapes any cross-
// worker same-phase overlap is reported as a RaceConflict.
//
// It is the dynamic counterpart of AuditSDCSchedule: the audit replays
// the static schedule, the checker watches the actual execution —
// including pair-order and scheduling effects the replay cannot see.
// The sweeps still compute their normal results; checking only adds
// bookkeeping (a mutex around the recording maps), so it is meant for
// verification runs, not timed ones.
type CheckedReducer struct {
	inner Reducer
	shape WriteShape

	mu        sync.Mutex
	sweeps    int
	phase     int
	kind      string
	writers   map[int32]int
	workerIDs map[uint64]int
	seen      map[conflictKey]struct{}
	conflicts []RaceConflict
}

type conflictKey struct {
	sweep, phase int
	slot         int32
}

// NewCheckedReducer wraps inner. The shape comes from inner's
// WriteShaper declaration, defaulting to shared-pair (the conservative
// reading: every pair is written to both slots unprotected).
func NewCheckedReducer(inner Reducer) *CheckedReducer {
	shape := WriteSharedPair
	if ws, ok := inner.(WriteShaper); ok {
		shape = ws.WriteShape()
	}
	c := &CheckedReducer{inner: inner, shape: shape}
	if ph, ok := inner.(phaseHooker); ok {
		ph.setPhaseHook(c.advancePhase)
	}
	return c
}

// Kind delegates to the wrapped reducer.
func (c *CheckedReducer) Kind() Kind { return c.inner.Kind() }

// Threads delegates to the wrapped reducer.
func (c *CheckedReducer) Threads() int { return c.inner.Threads() }

// PairWork delegates to the wrapped reducer.
func (c *CheckedReducer) PairWork() int { return c.inner.PairWork() }

// ParallelForAtoms delegates: the embedding phase has no cross-
// iteration writes to check.
func (c *CheckedReducer) ParallelForAtoms(body func(start, end, tid int)) {
	c.inner.ParallelForAtoms(body)
}

// Shape returns the write shape the check runs under.
func (c *CheckedReducer) Shape() WriteShape { return c.shape }

// recording reports whether this shape needs per-pair observation.
func (c *CheckedReducer) recording() bool {
	return c.shape == WriteSharedPair || c.shape == WriteOwnerOnly
}

// SweepScalar runs the wrapped scalar sweep, observing writes.
func (c *CheckedReducer) SweepScalar(out []float64, terms Terms[float64]) {
	checkedSweep(c, "scalar", c.inner.SweepScalar, out, terms)
}

// SweepVector runs the wrapped vector sweep, observing writes.
func (c *CheckedReducer) SweepVector(out []vec.Vec3, terms Terms[vec.Vec3]) {
	checkedSweep(c, "vector", c.inner.SweepVector, out, terms)
}

// checkedSweep runs one wrapped sweep. Under a recording shape every
// chunk first notes the slots its pairs write, on the worker that will
// write them, then fills the wrapped strategy's scratch.
func checkedSweep[T Elem](c *CheckedReducer, kind string, sweep func([]T, Terms[T]), out []T, terms Terms[T]) {
	if !c.recording() {
		sweep(out, terms)
		c.bumpSweep()
		return
	}
	c.beginSweep(kind)
	sweep(out, func(i int32, js []int32, ci, cj []T) {
		for _, j := range js {
			c.record(i, j)
		}
		terms(i, js, ci, cj)
	})
}

func (c *CheckedReducer) bumpSweep() {
	c.mu.Lock()
	c.sweeps++
	c.mu.Unlock()
}

func (c *CheckedReducer) beginSweep(kind string) {
	c.mu.Lock()
	c.sweeps++
	c.phase = 0
	c.kind = kind
	c.writers = make(map[int32]int)
	c.workerIDs = make(map[uint64]int)
	c.mu.Unlock()
}

// advancePhase is called serially by the wrapped reducer after each of
// its internal barriers (SDC's per-color pool join): writes before and
// after a barrier can never race, so the write sets start over.
func (c *CheckedReducer) advancePhase() {
	c.mu.Lock()
	c.phase++
	c.writers = make(map[int32]int)
	c.mu.Unlock()
}

// record notes that the calling worker writes the slots of pair (i, j)
// under the declared shape.
func (c *CheckedReducer) record(i, j int32) {
	g := goid()
	c.mu.Lock()
	w, ok := c.workerIDs[g]
	if !ok {
		w = len(c.workerIDs)
		c.workerIDs[g] = w
	}
	c.noteWrite(i, w)
	if c.shape == WriteSharedPair {
		c.noteWrite(j, w)
	}
	c.mu.Unlock()
}

// noteWrite records worker w writing slot s in the current phase;
// callers hold mu.
func (c *CheckedReducer) noteWrite(s int32, w int) {
	prev, ok := c.writers[s]
	if !ok {
		c.writers[s] = w
		return
	}
	if prev == w {
		return
	}
	key := conflictKey{sweep: c.sweeps, phase: c.phase, slot: s}
	if c.seen == nil {
		c.seen = make(map[conflictKey]struct{})
	}
	if _, dup := c.seen[key]; dup {
		return
	}
	c.seen[key] = struct{}{}
	c.conflicts = append(c.conflicts, RaceConflict{
		Sweep: c.sweeps, Kind: c.kind, Phase: c.phase,
		Slot: s, FirstWorker: prev, SecondWorker: w,
	})
}

// Conflicts returns the violations seen so far, sorted by (sweep,
// phase, slot) so reports are deterministic across runs.
func (c *CheckedReducer) Conflicts() []RaceConflict {
	c.mu.Lock()
	out := append([]RaceConflict(nil), c.conflicts...)
	c.mu.Unlock()
	sort.Slice(out, func(a, b int) bool {
		if out[a].Sweep != out[b].Sweep {
			return out[a].Sweep < out[b].Sweep
		}
		if out[a].Phase != out[b].Phase {
			return out[a].Phase < out[b].Phase
		}
		return out[a].Slot < out[b].Slot
	})
	return out
}

// Err returns nil when no conflicts were observed, or one error
// summarizing the first conflict and the total count.
func (c *CheckedReducer) Err() error {
	conflicts := c.Conflicts()
	if len(conflicts) == 0 {
		return nil
	}
	return fmt.Errorf("strategy: %d unsynchronized write conflict(s) under shape %s; first: %s",
		len(conflicts), c.shape, conflicts[0])
}

// Reset clears the recorded history for a fresh verification pass.
func (c *CheckedReducer) Reset() {
	c.mu.Lock()
	c.sweeps, c.phase = 0, 0
	c.writers, c.workerIDs, c.seen = nil, nil, nil
	c.conflicts = nil
	c.mu.Unlock()
}

// goid returns the runtime id of the calling goroutine, parsed from the
// stack header ("goroutine N [running]:"). There is no public API for
// this; the checker only needs a stable identity per worker, not the
// number itself.
func goid() uint64 {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	const prefix = len("goroutine ")
	var id uint64
	for _, ch := range buf[prefix:n] {
		if ch < '0' || ch > '9' {
			break
		}
		id = id*10 + uint64(ch-'0')
	}
	return id
}
