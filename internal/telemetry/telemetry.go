// Package telemetry is the observability layer of the reproduction:
// per-phase timers for the three EAM force phases (§II.C), per-color
// sweep times and per-worker busy/barrier-wait accumulation for the SDC
// schedule, and the structural counters (neighbor rebuilds, guard
// faults/rollbacks/checkpoints) the experiments and the supervisor
// expose. The paper's whole evaluation separates "the running times of
// the calculations of the electron densities and forces" (§III.A);
// this package makes that separation observable on a live run.
//
// Design constraints:
//
//   - Allocation-free in the hot path: recording is a handful of atomic
//     adds on pre-sized arrays; spans are value types.
//   - Nil-safe: every method on a nil *Recorder is a no-op, so call
//     sites thread the recorder unconditionally and a disabled run pays
//     only a nil check.
//   - Snapshot-consistent enough for monitoring: Snapshot may run
//     concurrently with recording; each field is individually atomic
//     (no cross-field transaction, which monitoring does not need).
//
// The package deliberately holds the only time.Now calls of the
// instrumented kernels: force/strategy code creates Spans through the
// Recorder, so the kernel-determinism discipline (no wall clock in
// kernel packages) stays intact — a dead Span records nothing.
// Likewise sync/atomic and the listener/streamer goroutines live here
// under explicit lint allow-list entries: they are observability
// control plane, not reduction-strategy synchronization or worker
// parallelism.
package telemetry

import (
	"sync"
	"sync/atomic"
	"time"
)

// Phase identifies one of the three phases of the EAM force
// calculation (§II.C).
type Phase int

// The phases, in execution order.
const (
	// PhaseDensity is phase 1: the electron-density scalar reduction.
	PhaseDensity Phase = iota
	// PhaseEmbed is phase 2: embedding energies and F'(ρ).
	PhaseEmbed
	// PhaseForce is phase 3: the force vector reduction.
	PhaseForce

	numPhases
)

// String names the phase as used in metric labels.
func (p Phase) String() string {
	switch p {
	case PhaseDensity:
		return "density"
	case PhaseEmbed:
		return "embed"
	case PhaseForce:
		return "force"
	}
	return "unknown"
}

// MaxColors bounds the per-color accumulators. The SDC decomposition
// uses 2^dim colors (≤ 8 for 3D); the headroom is for experimental
// colorings.
const MaxColors = 16

// Recorder accumulates telemetry. The zero value is NOT usable; build
// with NewRecorder. All methods are safe for concurrent use and are
// no-ops on a nil receiver.
type Recorder struct {
	start time.Time

	phaseNS    [numPhases]atomic.Int64
	phaseCalls [numPhases]atomic.Int64

	colorNS     [MaxColors]atomic.Int64
	colorSweeps [MaxColors]atomic.Int64

	rebuilds    atomic.Uint64
	faults      atomic.Uint64
	rollbacks   atomic.Uint64
	checkpoints atomic.Uint64

	// Worker accumulation is coarse (once per parallel region, not per
	// item), so a mutex-guarded grow-only pair of slices suffices.
	mu     sync.Mutex
	busyNS []int64
	waitNS []int64
}

// NewRecorder builds an empty recorder anchored at now.
func NewRecorder() *Recorder {
	return &Recorder{start: time.Now()}
}

// Span is an in-flight interval measurement. The zero Span is dead:
// Elapsed returns 0 and End* methods record nothing, which is how a nil
// Recorder disables timing without branches at the call site.
type Span struct {
	t0   time.Time
	live bool
}

// Span starts an interval measurement (dead when r is nil).
func (r *Recorder) Span() Span {
	if r == nil {
		return Span{}
	}
	return Span{t0: time.Now(), live: true}
}

// Elapsed returns the time since the span started (0 for a dead span).
func (s Span) Elapsed() time.Duration {
	if !s.live {
		return 0
	}
	return time.Since(s.t0)
}

// AddPhase accumulates one timed interval of phase p.
func (r *Recorder) AddPhase(p Phase, d time.Duration) {
	if r == nil || p < 0 || p >= numPhases {
		return
	}
	r.phaseNS[p].Add(int64(d))
	r.phaseCalls[p].Add(1)
}

// EndPhase closes a span started with Span and charges it to phase p.
func (r *Recorder) EndPhase(p Phase, s Span) {
	if !s.live {
		return
	}
	r.AddPhase(p, s.Elapsed())
}

// AddColor accumulates one color-sweep interval. Colors at or beyond
// MaxColors are folded into the last bucket rather than dropped.
func (r *Recorder) AddColor(c int, d time.Duration) {
	if r == nil || c < 0 {
		return
	}
	if c >= MaxColors {
		c = MaxColors - 1
	}
	r.colorNS[c].Add(int64(d))
	r.colorSweeps[c].Add(1)
}

// AddWorker accumulates one parallel region's busy and barrier-wait
// time for worker tid, growing the per-worker arrays as needed.
func (r *Recorder) AddWorker(tid int, busy, wait time.Duration) {
	if r == nil || tid < 0 {
		return
	}
	if busy < 0 {
		busy = 0
	}
	if wait < 0 {
		wait = 0
	}
	r.mu.Lock()
	for len(r.busyNS) <= tid {
		//lint:ignore hot-loop grows once to the worker count on first sight of each tid, then never again
		r.busyNS = append(r.busyNS, 0)
		//lint:ignore hot-loop grows once to the worker count on first sight of each tid, then never again
		r.waitNS = append(r.waitNS, 0)
	}
	r.busyNS[tid] += int64(busy)
	r.waitNS[tid] += int64(wait)
	r.mu.Unlock()
}

// IncRebuild counts one neighbor-list (re)build.
func (r *Recorder) IncRebuild() {
	if r != nil {
		r.rebuilds.Add(1)
	}
}

// IncFault counts one guard fault (invariant violation or integrator
// error caught by the supervisor).
func (r *Recorder) IncFault() {
	if r != nil {
		r.faults.Add(1)
	}
}

// IncRollback counts one successful guard rollback (recovery).
func (r *Recorder) IncRollback() {
	if r != nil {
		r.rollbacks.Add(1)
	}
}

// IncCheckpoint counts one atomic on-disk checkpoint.
func (r *Recorder) IncCheckpoint() {
	if r != nil {
		r.checkpoints.Add(1)
	}
}

// PhaseStat is the snapshot of one phase timer.
type PhaseStat struct {
	// Seconds is the accumulated wall time of the phase.
	Seconds float64 `json:"seconds"`
	// Calls is how many timed intervals were accumulated.
	Calls int64 `json:"calls"`
}

// ColorStat is the snapshot of one SDC color's sweep timer.
type ColorStat struct {
	// Color is the color index of the decomposition.
	Color int `json:"color"`
	// Seconds is the accumulated sweep time of the color.
	Seconds float64 `json:"seconds"`
	// Sweeps is how many color sweeps were accumulated.
	Sweeps int64 `json:"sweeps"`
}

// WorkerStat is the snapshot of one pool worker.
type WorkerStat struct {
	// Worker is the worker id (pool thread index).
	Worker int `json:"worker"`
	// BusySeconds is time spent executing region bodies.
	BusySeconds float64 `json:"busy_seconds"`
	// WaitSeconds is time spent at region barriers waiting for the
	// slowest worker — the §IV fork-join/imbalance cost, measured.
	WaitSeconds float64 `json:"wait_seconds"`
	// Utilization is busy/(busy+wait) in (0, 1]; 0 when the worker
	// never ran.
	Utilization float64 `json:"utilization"`
}

// Metrics is a typed, JSON-serializable snapshot of a Recorder.
type Metrics struct {
	// UptimeSeconds is the wall time since the recorder was built.
	UptimeSeconds float64 `json:"uptime_seconds"`
	// Density, Embed and Force are the per-phase timers (§II.C).
	Density PhaseStat `json:"density"`
	Embed   PhaseStat `json:"embed"`
	Force   PhaseStat `json:"force"`
	// Colors holds per-color sweep times (SDC only; empty otherwise).
	Colors []ColorStat `json:"colors,omitempty"`
	// Workers holds per-worker busy/wait/utilization (parallel
	// strategies only; empty for serial).
	Workers []WorkerStat `json:"workers,omitempty"`
	// Rebuilds counts neighbor-list (re)builds.
	Rebuilds uint64 `json:"rebuilds"`
	// Faults, Rollbacks and Checkpoints count guard events (0 when
	// unguarded).
	Faults      uint64 `json:"faults"`
	Rollbacks   uint64 `json:"rollbacks"`
	Checkpoints uint64 `json:"checkpoints"`
}

// Phase returns the stat of phase p.
func (m Metrics) Phase(p Phase) PhaseStat {
	switch p {
	case PhaseDensity:
		return m.Density
	case PhaseEmbed:
		return m.Embed
	case PhaseForce:
		return m.Force
	}
	return PhaseStat{}
}

// PhaseSeconds returns the sum of the three phase timers — the
// instrumented share of the paper's measured force time.
func (m Metrics) PhaseSeconds() float64 {
	return m.Density.Seconds + m.Embed.Seconds + m.Force.Seconds
}

// Snapshot captures the current state. A nil recorder yields the zero
// Metrics.
func (r *Recorder) Snapshot() Metrics {
	if r == nil {
		return Metrics{}
	}
	m := Metrics{UptimeSeconds: time.Since(r.start).Seconds()}
	read := func(p Phase) PhaseStat {
		return PhaseStat{
			Seconds: time.Duration(r.phaseNS[p].Load()).Seconds(),
			Calls:   r.phaseCalls[p].Load(),
		}
	}
	m.Density = read(PhaseDensity)
	m.Embed = read(PhaseEmbed)
	m.Force = read(PhaseForce)
	for c := 0; c < MaxColors; c++ {
		sweeps := r.colorSweeps[c].Load()
		if sweeps == 0 {
			continue
		}
		m.Colors = append(m.Colors, ColorStat{
			Color:   c,
			Seconds: time.Duration(r.colorNS[c].Load()).Seconds(),
			Sweeps:  sweeps,
		})
	}
	r.mu.Lock()
	for t := range r.busyNS {
		busy := time.Duration(r.busyNS[t]).Seconds()
		wait := time.Duration(r.waitNS[t]).Seconds()
		util := 0.0
		if busy+wait > 0 {
			util = busy / (busy + wait)
		}
		m.Workers = append(m.Workers, WorkerStat{
			Worker: t, BusySeconds: busy, WaitSeconds: wait, Utilization: util,
		})
	}
	r.mu.Unlock()
	m.Rebuilds = r.rebuilds.Load()
	m.Faults = r.faults.Load()
	m.Rollbacks = r.rollbacks.Load()
	m.Checkpoints = r.checkpoints.Load()
	return m
}
