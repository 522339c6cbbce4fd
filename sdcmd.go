// Package sdcmd is a molecular-dynamics library for metals built around
// the Spatial Decomposition Coloring (SDC) parallelization method of
// Hu, Liu & Li, "Efficient Parallel Implementation of Molecular
// Dynamics with Embedded Atom Method on Multi-core Platforms" (ICPP
// Workshops 2009).
//
// The package is a facade over the implementation packages:
//
//   - internal/core — the SDC decomposition and coloring
//   - internal/strategy — SDC plus the CS/Atomic/SAP/RC baselines
//   - internal/potential, internal/force — the EAM physics
//   - internal/md — time integration
//   - internal/guard — the supervisor every Simulation runs under
//   - internal/harness, internal/perfmodel — the paper's experiments
//
// Quick start:
//
//	sim, err := sdcmd.NewSimulation(sdcmd.SimOptions{
//		Cells:       10,            // 2·10³ = 2000 bcc Fe atoms
//		Temperature: 300,           // K
//		Strategy:    "sdc",
//		Threads:     4,
//	})
//	if err != nil { ... }
//	defer sim.Close()
//	err = sim.Run(100)
package sdcmd

import (
	"context"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"sdcmd/internal/guard"
	"sdcmd/internal/harness"
	"sdcmd/internal/md"
	"sdcmd/internal/strategy"
	"sdcmd/internal/telemetry"
	"sdcmd/internal/vec"
	"sdcmd/internal/xyz"
)

// SimOptions configures NewSimulation and ResumeSimulation. The zero
// value of each field selects the default of the internal
// md.DefaultJob, the one run description mdrun and the sdcserve job
// service share, or of the run's supervisor.
type SimOptions struct {
	// Cells is the bcc supercell count per side (default 8 → 1024
	// atoms of iron at the experimental lattice constant).
	Cells int
	// Temperature is the initial Maxwell-Boltzmann temperature in K
	// (default 300).
	Temperature float64
	// Seed makes runs reproducible (default 1).
	Seed int64
	// Strategy is one of "serial", "sdc", "cs", "atomic", "sap", "rc"
	// (default "serial").
	Strategy string
	// Threads is the worker count for parallel strategies (default 1).
	Threads int
	// Dim is the SDC dimensionality 1-3 (default 2, the paper's best).
	Dim int
	// Dt is the timestep in ps (default 1 fs). The paper's own Δt is
	// sdcmd.PaperTimestep.
	Dt float64
	// Skin is the Verlet skin in Å (default 0.5).
	Skin float64
	// Johnson selects the Johnson universal embedding function instead
	// of Finnis–Sinclair.
	Johnson bool
	// ThermostatTarget, when > 0, enables a Berendsen thermostat with
	// time constant ThermostatTau (default 0.01 ps).
	ThermostatTarget, ThermostatTau float64
	// Jitter displaces the initial lattice by this amplitude in Å
	// (default 0: perfect crystal).
	Jitter float64
	// Telemetry enables the per-phase/per-worker metrics recorder; read
	// it with Simulation.Metrics, ServeMetrics or StreamMetrics. Off by
	// default (the recorder costs two monotonic clock reads per phase).
	Telemetry bool
	// BlockReorder permutes atoms into neighbor-cell order at every
	// neighbor-list rebuild (the §II.D spatial reorder), so each cell's
	// atoms are one dense index range and the list search skips most
	// cells whole; the "sdc" sweeps walk their subdomains through
	// PartIndex as on any order. Off by default: it renumbers atoms, so
	// trajectory and checkpoint atom order changes. Requires Strategy
	// "sdc".
	BlockReorder bool

	// CheckEvery is the supervisor's invariant-check and
	// rollback-snapshot interval in steps (default 10).
	CheckEvery int
	// MaxRetries bounds the rollbacks of the whole run before a fault
	// is returned (default 3). A negative value fails fast: the first
	// fault is returned, with no rollback.
	MaxRetries int
	// CheckpointPath is the file Checkpoint writes atomically and
	// ResumeSimulation reads.
	CheckpointPath string
	// CheckpointEvery, when > 0, also checkpoints to CheckpointPath
	// every CheckpointEvery steps.
	CheckpointEvery int
	// StepDeadline arms the watchdog: a step chunk exceeding it becomes
	// a stall fault and triggers rollback (0 = off).
	StepDeadline time.Duration
	// EventWriter, when non-nil, receives every supervisor event as a
	// JSON line (the machine-readable audit trail).
	EventWriter io.Writer
}

// PaperTimestep is the paper's Δt = 10⁻¹⁷ s, in ps.
const PaperTimestep = md.PaperTimestep

// ErrCanceled is the errors.Is sentinel for a run stopped by context
// cancellation (Simulation.RunContext). It wraps the context's error,
// so errors.Is against context.Canceled works too; a canceled run
// always stops at a step boundary with the state consistent and
// checkpointable.
var ErrCanceled = md.ErrCanceled

// Simulation is a live MD run over bcc iron under the fault-tolerant
// supervisor: invariants are checked as it runs, a violation rolls the
// state back to the last checked snapshot under a degradation ladder
// (halve Dt, then fall back toward the serial strategy), and
// checkpoints are written atomically for a bit-for-bit resume. A clean
// run that writes no checkpoint follows the unsupervised integrator bit
// for bit.
type Simulation struct {
	sup *guard.Supervisor
	// dt is the timestep the run was built with; the thermo log's time
	// column is StepCount × dt.
	dt     float64
	thermo *csv.Writer
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

// config maps o to the run it describes and that run's md.Config:
// md.Job's defaults, checks and mapping, then the facade's own
// Telemetry and BlockReorder options.
func (o SimOptions) config() (md.Job, md.Config, error) {
	pot := ""
	if o.Johnson {
		pot = "eam-johnson"
	}
	j := md.Job{
		Potential: pot, Cells: o.Cells, Temperature: o.Temperature, Seed: o.Seed,
		Strategy: o.Strategy, Threads: o.Threads, Dim: o.Dim, Dt: o.Dt, Skin: o.Skin,
		Jitter: o.Jitter, Thermostat: o.ThermostatTarget, ThermostatTau: o.ThermostatTau,
	}.WithDefaults()
	if err := j.Validate(); err != nil {
		return j, md.Config{}, fmt.Errorf("sdcmd: %w", err)
	}
	mcfg, err := j.Config()
	if err != nil {
		return j, mcfg, err
	}
	mcfg.BlockReorder = o.BlockReorder
	if o.Telemetry {
		mcfg.Telemetry = telemetry.NewRecorder()
	}
	return j, mcfg, nil
}

func (o SimOptions) policy() guard.Policy {
	return guard.Policy{
		CheckEvery:      o.CheckEvery,
		MaxRetries:      o.MaxRetries,
		CheckpointPath:  o.CheckpointPath,
		CheckpointEvery: o.CheckpointEvery,
		StepDeadline:    o.StepDeadline,
		EventWriter:     o.EventWriter,
	}
}

// NewSimulation builds a bcc-Fe system and its supervised simulator.
func NewSimulation(o SimOptions) (*Simulation, error) {
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
	return &Simulation{sup: sup, dt: mcfg.Dt}, nil
}

// ResumeSimulation continues the run checkpointed at o.CheckpointPath.
// The state (positions, velocities, box, mass) and the step count come
// from the file, so Cells, Temperature, Seed and Jitter are ignored;
// the rest of the run comes from o. Under the options that wrote the
// checkpoint, the continuation is bit for bit the run that wrote it.
func ResumeSimulation(o SimOptions) (*Simulation, error) {
	if o.CheckpointPath == "" {
		return nil, errors.New("sdcmd: ResumeSimulation needs SimOptions.CheckpointPath")
	}
	_, mcfg, err := o.config()
	if err != nil {
		return nil, err
	}
	sup, err := guard.Resume(o.CheckpointPath, mcfg, o.policy())
	if err != nil {
		return nil, err
	}
	return &Simulation{sup: sup, dt: mcfg.Dt}, nil
}

// Run advances n timesteps under supervision. Recoverable faults are
// absorbed (rollback and degradation); the error return means the
// retry budget is spent or recovery itself failed.
func (s *Simulation) Run(n int) error { return s.sup.Run(n) }

// RunContext is Run with cancellation: a canceled ctx stops the run
// within one MD step and returns an error wrapping ErrCanceled without
// spending a retry or rolling back; the state is the last completed
// step and Checkpoint may be called right after.
func (s *Simulation) RunContext(ctx context.Context, n int) error { return s.sup.RunCtx(ctx, n) }

// N returns the atom count.
func (s *Simulation) N() int { return s.sup.System().N() }

// Temperature returns the instantaneous kinetic temperature (K).
func (s *Simulation) Temperature() float64 { return s.sup.System().Temperature() }

// KineticEnergy returns the kinetic energy (eV).
func (s *Simulation) KineticEnergy() float64 { return s.sup.System().KineticEnergy() }

// PotentialEnergy returns the full EAM potential energy (eV).
func (s *Simulation) PotentialEnergy() float64 { return s.sup.PotentialEnergy() }

// TotalEnergy returns KE + PE (eV).
func (s *Simulation) TotalEnergy() float64 { return s.sup.TotalEnergy() }

// StepCount returns the absolute step counter: a rollback rewinds it,
// and a resumed run continues its checkpoint's count.
func (s *Simulation) StepCount() int { return s.sup.StepCount() }

// Retries returns how many rollbacks the supervisor has spent.
func (s *Simulation) Retries() int { return s.sup.Retries() }

// ApplyStrain deforms the cell homogeneously by (1+eps) per axis — one
// micro-deformation increment. The strained state becomes the only
// rollback target, so a later fault cannot undo the strain.
func (s *Simulation) ApplyStrain(ex, ey, ez float64) error {
	return s.sup.ApplyStrain(vec.New(ex, ey, ez))
}

// WriteXYZ writes the current frame in extended-XYZ form.
func (s *Simulation) WriteXYZ(w io.Writer, comment string) error {
	return xyz.WriteXYZ(w, xyz.FromSystem(s.sup.System(), "Fe", comment, s.sup.StepCount()))
}

// Checkpoint writes a binary restart checkpoint of the current state
// to SimOptions.CheckpointPath, atomically (temp file and rename), and
// rebuilds the neighbor list so the run continues exactly as one
// resumed from the file would.
func (s *Simulation) Checkpoint() error { return s.sup.Checkpoint() }

// Events returns the supervisor's transition log.
func (s *Simulation) Events() []GuardEvent {
	evs := s.sup.Events()
	out := make([]GuardEvent, len(evs))
	for i, e := range evs {
		out[i] = GuardEvent{Step: e.Step, Kind: string(e.Kind), Detail: e.Detail}
	}
	return out
}

// StreamError reports the first failure writing to EventWriter (nil
// when streaming is healthy or disabled).
func (s *Simulation) StreamError() error { return s.sup.StreamError() }

// StartThermoLog attaches a CSV thermodynamics log (step, time, T, KE,
// PE, E) and writes its header; call LogThermo to append records. The
// step is the absolute StepCount and the time StepCount × the run's
// Dt.
func (s *Simulation) StartThermoLog(w io.Writer) error {
	if w == nil {
		return errors.New("sdcmd: thermo log needs a writer")
	}
	s.thermo = csv.NewWriter(w)
	return s.writeThermo([]string{"step", "time_ps", "T_K", "KE_eV", "PE_eV", "E_eV"})
}

// LogThermo appends one record at the current step to the attached
// thermo log. The potential energy is re-evaluated (extra sweeps), so
// log at intervals, not every step.
func (s *Simulation) LogThermo() error {
	if s.thermo == nil {
		return errors.New("sdcmd: no thermo log attached (call StartThermoLog)")
	}
	ke, pe := s.KineticEnergy(), s.PotentialEnergy()
	return s.writeThermo([]string{
		strconv.Itoa(s.StepCount()),
		strconv.FormatFloat(float64(s.StepCount())*s.dt, 'g', 10, 64),
		strconv.FormatFloat(s.Temperature(), 'g', 8, 64),
		strconv.FormatFloat(ke, 'g', 10, 64),
		strconv.FormatFloat(pe, 'g', 10, 64),
		strconv.FormatFloat(ke+pe, 'g', 10, 64),
	})
}

func (s *Simulation) writeThermo(rec []string) error {
	if err := s.thermo.Write(rec); err != nil {
		return err
	}
	s.thermo.Flush()
	return s.thermo.Error()
}

// Close releases worker resources.
func (s *Simulation) Close() { s.sup.Close() }

// ExperimentOptions configures RunExperiment.
type ExperimentOptions struct {
	// Mode is "model" (default: predict the paper's 16-core testbed)
	// or "measured" (time this host).
	Mode string
	// Out receives the rendered table; required.
	Out io.Writer
	// MeasuredCells/MeasuredSteps bound measured-mode work.
	MeasuredCells, MeasuredSteps int
	// Threads overrides the default {2,3,4,8,12,16}.
	Threads []int
	// CSV switches the output to machine-readable long-form CSV.
	CSV bool
	// Check runs the §II.B correctness pass first — every strategy's
	// real sweeps under the dynamic write-set check plus the static SDC
	// schedule audit — and aborts if it fails; measured-mode sweeps of
	// the experiment itself also run checked.
	Check bool
}

// RunExperiment regenerates one of the paper's evaluation artifacts:
// "table1", "fig9" or "reorder".
func RunExperiment(name string, o ExperimentOptions) error {
	if o.Out == nil {
		return fmt.Errorf("sdcmd: ExperimentOptions.Out is required")
	}
	exp, ok := harness.LookupExperiment(name)
	if !ok {
		return fmt.Errorf("sdcmd: unknown experiment %q (want %s)", name, strings.Join(harness.ExperimentNames(), ", "))
	}
	mode := harness.ModeModel
	if o.Mode != "" {
		m, err := harness.ParseMode(o.Mode)
		if err != nil {
			return err
		}
		mode = m
	}
	opts := harness.Options{
		Mode:          mode,
		Threads:       o.Threads,
		MeasuredCells: o.MeasuredCells,
		MeasuredSteps: o.MeasuredSteps,
		Check:         o.Check,
	}
	if o.Check {
		v, err := harness.VerifyStrategies(opts)
		if err != nil {
			return err
		}
		if err := v.Render(o.Out); err != nil {
			return err
		}
		if v.Failed() {
			return fmt.Errorf("sdcmd: strategy verification failed — see the report above")
		}
		if _, err := fmt.Fprintln(o.Out); err != nil {
			return err
		}
	}
	res, err := exp.Run(opts)
	if err != nil {
		return err
	}
	if o.CSV {
		return res.WriteCSV(o.Out)
	}
	return res.Render(o.Out)
}

// Strategies lists the supported strategy names.
func Strategies() []string {
	out := make([]string, len(strategy.Kinds))
	for i, k := range strategy.Kinds {
		out[i] = k.String()
	}
	return out
}
