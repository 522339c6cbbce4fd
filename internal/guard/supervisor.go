package guard

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"

	"sdcmd/internal/atomicio"
	"sdcmd/internal/md"
	"sdcmd/internal/strategy"
	"sdcmd/internal/vec"
	"sdcmd/internal/xyz"
)

// Policy configures the supervisor. The zero value of each field
// selects a sensible default (documented per field); a zero Limits
// keeps only the always-on finiteness checks.
type Policy struct {
	// CheckEvery is the invariant-check interval in steps (default 10).
	// It is also the snapshot cadence: every checked-good state is
	// pushed to the rollback ring.
	CheckEvery int
	// RingSize bounds the in-memory snapshot ring (default 4).
	RingSize int
	// MaxRetries bounds the total number of rollbacks over the
	// supervisor's life; the fault is returned once the budget is spent
	// (default 3). A negative value gives up at the first fault, with
	// no rollback.
	MaxRetries int
	// CheckpointPath, with CheckpointEvery > 0, enables periodic atomic
	// on-disk checkpoints (temp file + rename). The path is also the
	// Checkpoint() target.
	CheckpointPath string
	// CheckpointEvery is the on-disk checkpoint interval in steps
	// (0 = only explicit Checkpoint() calls).
	CheckpointEvery int
	// StepDeadline arms the watchdog: a sweep chunk exceeding it is
	// reported as a stall fault instead of hanging forever (0 = off).
	StepDeadline time.Duration
	// Limits are the invariant thresholds.
	Limits Limits
	// Inject, when non-nil, applies a deterministic fault schedule
	// (test/chaos hook; never set in production runs).
	Inject *Injector
	// EventWriter, when non-nil, receives every event as a JSON line.
	EventWriter io.Writer
}

// withDefaults fills zero fields.
func (p Policy) withDefaults() Policy {
	if p.CheckEvery <= 0 {
		p.CheckEvery = 10
	}
	if p.RingSize <= 0 {
		p.RingSize = 4
	}
	if p.MaxRetries == 0 {
		p.MaxRetries = 3
	}
	return p
}

// Supervisor wraps md.Simulator and makes long runs survivable:
// invariants are validated every CheckEvery steps, validated states
// feed a bounded snapshot ring and periodic atomic checkpoints, and a
// fault triggers rollback to the last good snapshot under a fixed
// degradation ladder — halve Dt on the first retry, then step the
// strategy down SDC → CS → Serial — until the retry budget is spent.
// All public methods are single-goroutine; the only internal
// concurrency is the watchdog runner.
type Supervisor struct {
	pol Policy
	cfg md.Config // current, possibly degraded, configuration

	sys *md.System
	sim *md.Simulator

	ring *snapRing
	log  eventLog

	absStep  int // authoritative step counter across rollbacks/resumes
	retries  int
	lastCkpt int
	e0       float64 // total-energy reference for the drift monitor
	// abandoned marks the simulator as owned by a timed-out watchdog
	// runner: it must not be touched (or Closed) again from here.
	abandoned bool
	closed    bool
}

// New validates cfg, builds the initial simulator, checks the initial
// state against the policy's invariants and seeds the rollback ring
// with it.
func New(sys *md.System, cfg md.Config, pol Policy) (*Supervisor, error) {
	return newAt(sys, cfg, pol, 0)
}

// Resume builds a supervisor from the atomic checkpoint at path,
// continuing the step count where the checkpoint left off. cfg supplies
// everything the checkpoint does not store (potential, strategy,
// thermostat, Dt).
func Resume(path string, cfg md.Config, pol Policy) (*Supervisor, error) {
	snap, err := xyz.ReadCheckpointFile(path)
	if err != nil {
		return nil, fmt.Errorf("guard: resume: %w", err)
	}
	sys, err := snap.ToSystem()
	if err != nil {
		return nil, fmt.Errorf("guard: resume: %w", err)
	}
	s, err := newAt(sys, cfg, pol, snap.Step)
	if err != nil {
		return nil, err
	}
	s.log.record(snap.Step, EventResume, "resumed from %s at step %d", path, snap.Step)
	return s, nil
}

func newAt(sys *md.System, cfg md.Config, pol Policy, startStep int) (*Supervisor, error) {
	if sys == nil {
		return nil, errors.New("guard: nil system")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	pol = pol.withDefaults()
	if pol.CheckpointEvery > 0 && pol.CheckpointPath == "" {
		return nil, errors.New("guard: CheckpointEvery set without CheckpointPath")
	}
	if pol.CheckpointPath != "" {
		// A crash mid-checkpoint leaves a <base>.tmp-* file next to the
		// real one; sweep it so restarts don't accumulate dead temps.
		// Sweep failure is not fatal — the checkpoint itself still works.
		dir, base := filepath.Split(pol.CheckpointPath)
		if dir == "" {
			dir = "."
		}
		if _, err := atomicio.SweepTemps(atomicio.OS, dir, base); err != nil {
			_, _ = fmt.Fprintf(os.Stderr, "guard: checkpoint temp sweep: %v\n", err)
		}
	}
	sim, err := md.NewSimulator(sys, cfg)
	if err != nil {
		return nil, err
	}
	s := &Supervisor{
		pol:      pol,
		cfg:      cfg,
		sys:      sys,
		sim:      sim,
		ring:     newSnapRing(pol.RingSize),
		log:      eventLog{w: pol.EventWriter},
		absStep:  startStep,
		lastCkpt: startStep,
	}
	s.anchorEnergy()
	if f := s.check(); f != nil {
		sim.Close()
		return nil, fmt.Errorf("guard: initial state already violates invariants: %w", f)
	}
	s.ring.push(xyz.FromSystem(sys, "Fe", "", startStep))
	return s, nil
}

// anchorEnergy re-references the drift monitor to the current state
// (at construction and after every rollback).
func (s *Supervisor) anchorEnergy() {
	if s.pol.Limits.MaxDriftPerAtom > 0 {
		s.e0 = s.sim.TotalEnergy()
	}
}

// Run advances n steps under supervision. On a fault it rolls back and
// degrades per policy; the error return is reserved for unrecoverable
// situations (retry budget spent, checkpoint I/O failure, rollback
// impossible).
func (s *Supervisor) Run(n int) error { return s.RunCtx(context.Background(), n) }

// RunCtx is Run with cancellation. The context is threaded down to the
// integrator's per-step check, so a canceled run stops within one MD
// step; the returned error wraps md.ErrCanceled (and the context's own
// error), is NOT treated as a fault — no retry is spent, no rollback
// happens — and the absolute step counter is advanced to the completed
// steps of the interrupted chunk, so the state and StepCount stay
// consistent and Checkpoint may be called right after.
func (s *Supervisor) RunCtx(ctx context.Context, n int) error {
	if s.closed {
		return errors.New("guard: supervisor is closed")
	}
	if n < 0 {
		return fmt.Errorf("guard: negative step count %d", n)
	}
	target := s.absStep + n
	for s.absStep < target {
		if cerr := ctx.Err(); cerr != nil {
			return fmt.Errorf("guard: %w at step %d: %w", md.ErrCanceled, s.absStep, cerr)
		}
		k := min(s.pol.CheckEvery, target-s.absStep)
		stall := s.pol.Inject.stallFor(s.absStep, k)
		simBefore := s.sim.StepCount()
		err := stepWithWatchdog(ctx, s.sim, k, s.pol.StepDeadline, stall, s.absStep)
		if errors.Is(err, md.ErrCanceled) {
			// Cancellation is a stop request, not a physics fault: the
			// integrator halted at a step boundary, so fold the completed
			// sub-chunk into the absolute counter and hand the consistent
			// state back untouched.
			s.absStep += s.sim.StepCount() - simBefore
			return fmt.Errorf("guard: %w", err)
		}
		if err == nil {
			s.absStep += k
			for _, inj := range s.pol.Inject.corrupt(s.sys, s.absStep) {
				s.log.record(s.absStep, EventInject, "injected %s (atom %d)", inj.Kind, inj.Atom)
			}
			if f := s.check(); f != nil {
				err = f
			}
		} else if f, ok := AsFault(err); ok && f.Monitor == "watchdog" {
			// Only the watchdog hands the simulator to a reaper
			// goroutine; everything else returns with the simulator
			// intact and ours to close.
			s.abandoned = true
		}
		if err != nil {
			if rerr := s.recoverFrom(err); rerr != nil {
				return rerr
			}
			continue
		}
		s.ring.push(xyz.FromSystem(s.sys, "Fe", "", s.absStep))
		if s.pol.CheckpointEvery > 0 && s.absStep-s.lastCkpt >= s.pol.CheckpointEvery {
			if err := s.Checkpoint(); err != nil {
				return err
			}
		}
	}
	return nil
}

// check runs every monitor against the current state.
func (s *Supervisor) check() *Fault {
	if f := CheckSystem(s.sys, s.absStep, s.pol.Limits); f != nil {
		return f
	}
	if s.pol.Limits.MaxDriftPerAtom > 0 && s.sys.N() > 0 {
		drift := math.Abs(s.sim.TotalEnergy()-s.e0) / float64(s.sys.N())
		if drift > s.pol.Limits.MaxDriftPerAtom {
			return &Fault{Monitor: "energy-drift", Step: s.absStep, Atom: -1, Value: drift,
				Msg: fmt.Sprintf("total energy drifted %g eV/atom since the last anchor (limit %g)",
					drift, s.pol.Limits.MaxDriftPerAtom)}
		}
	}
	return nil
}

// recoverFrom logs the fault, spends one retry, degrades the
// configuration and restores the last good snapshot.
func (s *Supervisor) recoverFrom(err error) error {
	f, ok := AsFault(err)
	if !ok {
		// The integrator's own blow-up detection and engine errors
		// arrive untyped; wrap them so the log and policy treat every
		// failure uniformly.
		f = &Fault{Monitor: "integrator", Step: s.absStep, Atom: -1, Msg: err.Error()}
	}
	s.log.record(f.Step, EventFault, "%s", f.Error())
	s.cfg.Telemetry.IncFault()
	s.retries++
	if s.retries > s.pol.MaxRetries {
		s.log.record(f.Step, EventGiveUp, "retry budget %d exhausted", s.pol.MaxRetries)
		return fmt.Errorf("guard: retry budget %d exhausted: %w", s.pol.MaxRetries, f)
	}
	s.degrade(f.Step)
	return s.restore(f)
}

// degrade applies the next rung of the degradation ladder: the first
// retry halves Dt (the cheapest fix for a marginal integration), later
// retries step the strategy down SDC → CS → Serial, and once serial is
// reached Dt halves again. Leaving SDC also turns BlockReorder off,
// which only SDC runs take.
func (s *Supervisor) degrade(atStep int) {
	if s.retries > 1 {
		if next, ok := downgradeStrategy(s.cfg.Strategy); ok {
			off := ""
			if s.cfg.BlockReorder {
				s.cfg.BlockReorder, off = false, ", block reorder off"
			}
			s.log.record(atStep, EventDegradeStrategy, "strategy %v -> %v%s", s.cfg.Strategy, next, off)
			s.cfg.Strategy = next
			return
		}
	}
	s.cfg.Dt /= 2
	s.log.record(atStep, EventHalveDt, "dt halved to %g ps", s.cfg.Dt)
}

// downgradeStrategy returns the next-safer strategy: SDC falls back to
// the mutex-priced CS, every other parallel strategy falls back to
// Serial, and Serial has nowhere left to go.
func downgradeStrategy(k strategy.Kind) (strategy.Kind, bool) {
	switch k {
	case strategy.SDC:
		return strategy.CS, true
	case strategy.Serial:
		return k, false
	default:
		return strategy.Serial, true
	}
}

// restore rolls the supervisor back to the newest ring snapshot that
// yields a working simulator, always onto a fresh System (a timed-out
// sweep may still be mutating the old one). A configuration that no
// simulator accepts is returned as it is, and no snapshot is dropped
// for it.
func (s *Supervisor) restore(cause *Fault) error {
	if err := s.cfg.Validate(); err != nil {
		return fmt.Errorf("guard: degraded configuration after %s fault: %w", cause.Monitor, err)
	}
	for s.ring.len() > 0 {
		snap := s.ring.last()
		sys, err := snap.ToSystem()
		if err != nil {
			s.ring.dropLast()
			continue
		}
		sim, err := md.NewSimulator(sys, s.cfg)
		if err != nil {
			s.ring.dropLast()
			continue
		}
		if !s.abandoned {
			s.sim.Close()
		}
		s.abandoned = false
		s.sys, s.sim = sys, sim
		s.absStep = snap.Step
		s.anchorEnergy()
		s.log.record(snap.Step, EventRollback,
			"rolled back to step %d after %s fault (retry %d of %d)",
			snap.Step, cause.Monitor, s.retries, s.pol.MaxRetries)
		s.cfg.Telemetry.IncRollback()
		return nil
	}
	return fmt.Errorf("guard: no usable snapshot to roll back to: %w", cause)
}

// Checkpoint writes an atomic on-disk checkpoint of the current state
// and forces a rebuild barrier so a run resumed from the file continues
// bit-for-bit identically to this one.
func (s *Supervisor) Checkpoint() error {
	if s.pol.CheckpointPath == "" {
		return errors.New("guard: no CheckpointPath configured")
	}
	if err := xyz.WriteCheckpointFile(s.pol.CheckpointPath, xyz.FromSystem(s.sys, "Fe", "", s.absStep)); err != nil {
		return err
	}
	s.lastCkpt = s.absStep
	s.cfg.Telemetry.IncCheckpoint()
	s.log.record(s.absStep, EventCheckpoint, "wrote %s", s.pol.CheckpointPath)
	return s.sim.Rebuild()
}

// ApplyStrain deforms the live state homogeneously by (1+eps) per axis
// and makes the strained state the ring's only snapshot, so a later
// rollback returns to the strained lattice instead of undoing the
// strain.
func (s *Supervisor) ApplyStrain(eps vec.Vec3) error {
	if s.closed {
		return errors.New("guard: supervisor is closed")
	}
	if err := s.sim.ApplyStrain(eps); err != nil {
		return err
	}
	s.ring = newSnapRing(s.pol.RingSize)
	s.ring.push(xyz.FromSystem(s.sys, "Fe", "", s.absStep))
	s.anchorEnergy()
	return nil
}

// StepCount returns the absolute step counter (it survives rollbacks,
// which rewind it, and resumes, which restore it).
func (s *Supervisor) StepCount() int { return s.absStep }

// Retries returns how many rollbacks have been spent.
func (s *Supervisor) Retries() int { return s.retries }

// System exposes the current dynamical state (read-only use between
// Run calls).
func (s *Supervisor) System() *md.System { return s.sys }

// Config returns the current — possibly degraded — configuration.
func (s *Supervisor) Config() md.Config { return s.cfg }

// Events returns a copy of the structured transition log.
func (s *Supervisor) Events() []Event { return s.log.Events() }

// StreamError reports the first failure writing to the EventWriter
// (nil when streaming is healthy or disabled).
func (s *Supervisor) StreamError() error { return s.log.werr }

// PotentialEnergy evaluates the current EAM energy.
func (s *Supervisor) PotentialEnergy() float64 { return s.sim.PotentialEnergy() }

// TotalEnergy returns KE + PE.
func (s *Supervisor) TotalEnergy() float64 { return s.sim.TotalEnergy() }

// Close releases the simulator resources (unless a timed-out sweep
// still owns them, in which case its reaper will).
func (s *Supervisor) Close() {
	if s.closed {
		return
	}
	s.closed = true
	if !s.abandoned {
		s.sim.Close()
	}
}
