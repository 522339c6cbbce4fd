package sdcmd

import (
	"context"
	"io"
	"time"

	"sdcmd/internal/guard"
	"sdcmd/internal/xyz"
)

// GuardOptions configures NewGuardedSimulation: the usual simulation
// options plus the fault-tolerance policy of the internal supervisor.
// Zero fields select defaults (check every 10 steps, 4-snapshot ring,
// 3 retries, no on-disk checkpoints, no watchdog, finiteness-only
// invariants).
type GuardOptions struct {
	SimOptions

	// CheckEvery is the invariant-check (and rollback-snapshot)
	// interval in steps.
	CheckEvery int
	// RingSize bounds the in-memory rollback ring.
	RingSize int
	// MaxRetries bounds rollbacks per Run call before the fault is
	// returned.
	MaxRetries int
	// CheckpointPath, with CheckpointEvery > 0, enables periodic atomic
	// on-disk checkpoints; it is also the Checkpoint() target.
	CheckpointPath string
	// CheckpointEvery is the on-disk checkpoint interval in steps.
	CheckpointEvery int
	// StepDeadline arms the watchdog: a step chunk exceeding it becomes
	// a stall fault and triggers rollback (0 = off).
	StepDeadline time.Duration
	// MaxTemperature, MaxKineticEnergy, MaxDriftPerAtom and
	// EscapeMargin are the invariant thresholds (each 0 = disabled);
	// NaN/Inf detection is always on.
	MaxTemperature, MaxKineticEnergy, MaxDriftPerAtom, EscapeMargin float64
	// EventWriter, when non-nil, receives every supervisor event as a
	// JSON line (the machine-readable audit trail).
	EventWriter io.Writer
}

// GuardEvent is one entry of the supervisor's transition log: faults,
// rollbacks, degradations, checkpoints, resumes.
type GuardEvent struct {
	// Step is the absolute simulation step of the event.
	Step int
	// Kind is the transition class: "fault", "rollback", "halve-dt",
	// "degrade-strategy", "checkpoint", "resume", "give-up", "inject".
	Kind string
	// Detail is the human-readable specifics.
	Detail string
}

func (o GuardOptions) policy() guard.Policy {
	return guard.Policy{
		CheckEvery:      o.CheckEvery,
		RingSize:        o.RingSize,
		MaxRetries:      o.MaxRetries,
		CheckpointPath:  o.CheckpointPath,
		CheckpointEvery: o.CheckpointEvery,
		StepDeadline:    o.StepDeadline,
		Limits: guard.Limits{
			MaxTemperature:   o.MaxTemperature,
			MaxKineticEnergy: o.MaxKineticEnergy,
			MaxDriftPerAtom:  o.MaxDriftPerAtom,
			EscapeMargin:     o.EscapeMargin,
		},
		EventWriter: o.EventWriter,
	}
}

// GuardedSimulation is a Simulation wrapped in the fault-tolerant
// supervisor: invariants are checked as it runs, violations roll the
// state back to the last validated snapshot under a degradation ladder
// (halve Dt, then fall back toward the serial strategy), and periodic
// checkpoints are written atomically for exact resume.
type GuardedSimulation struct {
	sup *guard.Supervisor
	recorder
}

// NewGuardedSimulation builds a bcc-Fe system and runs it under the
// supervisor policy in o.
func NewGuardedSimulation(o GuardOptions) (*GuardedSimulation, error) {
	j, mcfg, err := o.config()
	if err != nil {
		return nil, err
	}
	sys, err := j.System()
	if err != nil {
		return nil, err
	}
	sup, err := guard.New(sys, mcfg, o.policy())
	if err != nil {
		return nil, err
	}
	return &GuardedSimulation{sup: sup, recorder: recorder{mcfg.Telemetry}}, nil
}

// ResumeGuardedSimulation continues a run from the atomic checkpoint at
// path; the step count picks up where the checkpoint left off, and the
// continuation is bit-for-bit identical to the run that wrote it (same
// structural options assumed). State options (Cells, Temperature, Seed,
// Jitter) are ignored.
func ResumeGuardedSimulation(path string, o GuardOptions) (*GuardedSimulation, error) {
	_, mcfg, err := o.config()
	if err != nil {
		return nil, err
	}
	sup, err := guard.Resume(path, mcfg, o.policy())
	if err != nil {
		return nil, err
	}
	return &GuardedSimulation{sup: sup, recorder: recorder{mcfg.Telemetry}}, nil
}

// Run advances n timesteps under supervision. Recoverable faults are
// absorbed (rollback + degradation); the error return means the retry
// budget is spent or recovery itself failed.
func (g *GuardedSimulation) Run(n int) error { return g.sup.Run(n) }

// RunContext is Run with cancellation: a canceled ctx stops the run
// within one MD step and returns an error wrapping ErrCanceled without
// spending a retry or rolling back — the state is the last completed
// step and Checkpoint may be called immediately after.
func (g *GuardedSimulation) RunContext(ctx context.Context, n int) error {
	return g.sup.RunCtx(ctx, n)
}

// N returns the atom count.
func (g *GuardedSimulation) N() int { return g.sup.System().N() }

// StepCount returns the absolute step counter (it survives rollbacks
// and resumes).
func (g *GuardedSimulation) StepCount() int { return g.sup.StepCount() }

// Retries returns how many rollbacks the supervisor has spent.
func (g *GuardedSimulation) Retries() int { return g.sup.Retries() }

// Temperature returns the instantaneous kinetic temperature (K).
func (g *GuardedSimulation) Temperature() float64 { return g.sup.System().Temperature() }

// KineticEnergy returns the kinetic energy (eV).
func (g *GuardedSimulation) KineticEnergy() float64 { return g.sup.System().KineticEnergy() }

// PotentialEnergy returns the full EAM potential energy (eV).
func (g *GuardedSimulation) PotentialEnergy() float64 { return g.sup.PotentialEnergy() }

// TotalEnergy returns KE + PE (eV).
func (g *GuardedSimulation) TotalEnergy() float64 { return g.sup.TotalEnergy() }

// Checkpoint writes an atomic on-disk checkpoint to the configured
// CheckpointPath now (in addition to any periodic cadence).
func (g *GuardedSimulation) Checkpoint() error { return g.sup.Checkpoint() }

// WriteXYZ writes the current frame in extended-XYZ form.
func (g *GuardedSimulation) WriteXYZ(w io.Writer, comment string) error {
	return xyz.WriteXYZ(w, xyz.FromSystem(g.sup.System(), "Fe", comment, g.sup.StepCount()))
}

// Events returns the supervisor's transition log.
func (g *GuardedSimulation) Events() []GuardEvent {
	evs := g.sup.Events()
	out := make([]GuardEvent, len(evs))
	for i, e := range evs {
		out[i] = GuardEvent{Step: e.Step, Kind: string(e.Kind), Detail: e.Detail}
	}
	return out
}

// StreamError reports the first failure writing to EventWriter (nil
// when streaming is healthy or disabled).
func (g *GuardedSimulation) StreamError() error { return g.sup.StreamError() }

// Close releases worker resources.
func (g *GuardedSimulation) Close() { g.sup.Close() }
