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
	"fmt"
	"io"

	"sdcmd/internal/core"
	"sdcmd/internal/harness"
	"sdcmd/internal/lattice"
	"sdcmd/internal/md"
	"sdcmd/internal/potential"
	"sdcmd/internal/strategy"
	"sdcmd/internal/telemetry"
	"sdcmd/internal/vec"
	"sdcmd/internal/xyz"
)

// SimOptions configures NewSimulation. The zero value of each field
// selects a sensible default.
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
	// BlockReorder permutes atoms into decomposition block order at
	// every neighbor-list rebuild (the §II.D cache-blocking reorder),
	// enabling the dense cell-block sweeps of the "sdc" strategy. Off by
	// default: it renumbers atoms, so trajectory and checkpoint atom
	// order changes. Requires Strategy "sdc".
	BlockReorder bool
}

// PaperTimestep is the paper's Δt = 10⁻¹⁷ s, in ps.
const PaperTimestep = md.PaperTimestep

// ErrCanceled is the errors.Is sentinel for a run stopped by context
// cancellation (RunContext on Simulation or GuardedSimulation). It
// wraps the context's error, so errors.Is against context.Canceled
// works too; a canceled run always stops at a step boundary with the
// state consistent and checkpointable.
var ErrCanceled = md.ErrCanceled

// Simulation is a live MD run over bcc iron.
type Simulation struct {
	sim    *md.Simulator
	sys    *md.System
	thermo *md.ThermoLogger
	tel    *telemetry.Recorder
}

// mdConfig translates the structural options (everything except the
// initial state) into an md.Config, applying defaults.
func (o SimOptions) mdConfig() (md.Config, error) {
	if o.Strategy == "" {
		o.Strategy = "serial"
	}
	if o.Threads == 0 {
		o.Threads = 1
	}
	if o.Dim == 0 {
		o.Dim = 2
	}
	if o.Dt == 0 {
		o.Dt = 1e-3
	}
	if o.Skin == 0 {
		o.Skin = 0.5
	}
	kind, err := strategy.ParseKind(o.Strategy)
	if err != nil {
		return md.Config{}, err
	}
	if o.Dim < 1 || o.Dim > 3 {
		return md.Config{}, fmt.Errorf("sdcmd: dim %d must be 1, 2 or 3", o.Dim)
	}
	params := potential.DefaultFeParams()
	if o.Johnson {
		params = potential.JohnsonFeParams()
	}
	pot, err := potential.NewFeEAM(params)
	if err != nil {
		return md.Config{}, err
	}
	mcfg := md.Config{
		Pot:          pot,
		Strategy:     kind,
		Threads:      o.Threads,
		Dim:          core.Dim(o.Dim),
		Skin:         o.Skin,
		Dt:           o.Dt,
		BlockReorder: o.BlockReorder,
	}
	if o.ThermostatTarget > 0 {
		tau := o.ThermostatTau
		if tau == 0 {
			tau = 0.01
		}
		mcfg.Thermostat = &md.Berendsen{Target: o.ThermostatTarget, Tau: tau}
	}
	if o.Telemetry {
		mcfg.Telemetry = telemetry.NewRecorder()
	}
	return mcfg, nil
}

// buildSystem translates the state options (Cells, Temperature, Seed,
// Jitter) into an initialized bcc-Fe system, applying defaults.
func (o SimOptions) buildSystem() (*md.System, error) {
	if o.Cells == 0 {
		o.Cells = 8
	}
	if o.Cells < 1 {
		return nil, fmt.Errorf("sdcmd: cells %d must be >= 1", o.Cells)
	}
	if o.Temperature == 0 {
		o.Temperature = 300
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	cfg, err := lattice.Build(lattice.BCC, o.Cells, o.Cells, o.Cells, lattice.FeLatticeConstant)
	if err != nil {
		return nil, err
	}
	if o.Jitter > 0 {
		cfg.Jitter(o.Jitter, o.Seed)
	}
	sys := md.FromLattice(cfg)
	if err := sys.InitVelocities(o.Temperature, o.Seed); err != nil {
		return nil, err
	}
	return sys, nil
}

// NewSimulation builds a bcc-Fe system and its simulator.
func NewSimulation(o SimOptions) (*Simulation, error) {
	sys, err := o.buildSystem()
	if err != nil {
		return nil, err
	}
	mcfg, err := o.mdConfig()
	if err != nil {
		return nil, err
	}
	sim, err := md.NewSimulator(sys, mcfg)
	if err != nil {
		return nil, err
	}
	return &Simulation{sim: sim, sys: sys, tel: mcfg.Telemetry}, nil
}

// RestoreSimulation resumes a run from a checkpoint written by
// WriteCheckpoint. Structural options (Strategy, Threads, Dim, Dt,
// Skin, Johnson, thermostat) are taken from o; the state (positions,
// velocities, box, mass) comes from the checkpoint, so Cells,
// Temperature, Seed and Jitter are ignored.
func RestoreSimulation(r io.Reader, o SimOptions) (*Simulation, error) {
	snap, err := xyz.ReadCheckpoint(r)
	if err != nil {
		return nil, err
	}
	sys, err := snap.ToSystem()
	if err != nil {
		return nil, err
	}
	mcfg, err := o.mdConfig()
	if err != nil {
		return nil, err
	}
	sim, err := md.NewSimulator(sys, mcfg)
	if err != nil {
		return nil, err
	}
	return &Simulation{sim: sim, sys: sys, tel: mcfg.Telemetry}, nil
}

// Run advances n timesteps.
func (s *Simulation) Run(n int) error { return s.sim.Step(n) }

// RunContext advances up to n timesteps, stopping at the next step
// boundary once ctx is canceled; the returned error then wraps
// ErrCanceled and the state stays consistent (last completed step).
func (s *Simulation) RunContext(ctx context.Context, n int) error { return s.sim.StepCtx(ctx, n) }

// N returns the atom count.
func (s *Simulation) N() int { return s.sys.N() }

// Temperature returns the instantaneous kinetic temperature (K).
func (s *Simulation) Temperature() float64 { return s.sys.Temperature() }

// KineticEnergy returns the kinetic energy (eV).
func (s *Simulation) KineticEnergy() float64 { return s.sys.KineticEnergy() }

// PotentialEnergy returns the full EAM potential energy (eV).
func (s *Simulation) PotentialEnergy() float64 { return s.sim.PotentialEnergy() }

// TotalEnergy returns KE + PE (eV).
func (s *Simulation) TotalEnergy() float64 { return s.sim.TotalEnergy() }

// StepCount returns completed steps.
func (s *Simulation) StepCount() int { return s.sim.StepCount() }

// ApplyStrain deforms the cell homogeneously by (1+eps) per axis — one
// micro-deformation increment.
func (s *Simulation) ApplyStrain(ex, ey, ez float64) error {
	return s.sim.ApplyStrain(vec.New(ex, ey, ez))
}

// WriteXYZ writes the current frame in extended-XYZ form.
func (s *Simulation) WriteXYZ(w io.Writer, comment string) error {
	return xyz.WriteXYZ(w, xyz.FromSystem(s.sys, "Fe", comment, s.sim.StepCount()))
}

// WriteCheckpoint writes a binary restart checkpoint.
func (s *Simulation) WriteCheckpoint(w io.Writer) error {
	return xyz.WriteCheckpoint(w, xyz.FromSystem(s.sys, "Fe", "", s.sim.StepCount()))
}

// StartThermoLog attaches a CSV thermodynamics log (step, time, T, KE,
// PE, E); call LogThermo to append records.
func (s *Simulation) StartThermoLog(w io.Writer) error {
	lg, err := md.NewThermoLogger(w, s.sim)
	if err != nil {
		return err
	}
	s.thermo = lg
	return nil
}

// LogThermo appends one record to the attached thermo log.
func (s *Simulation) LogThermo() error {
	if s.thermo == nil {
		return fmt.Errorf("sdcmd: no thermo log attached (call StartThermoLog)")
	}
	return s.thermo.Log()
}

// Close releases worker resources.
func (s *Simulation) Close() { s.sim.Close() }

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

// RunExperiment regenerates one of the paper's evaluation artifacts —
// "table1", "fig9", "reorder" — or the §V future-work studies: NUMA
// placement ("numa") and cluster-scale hybrid MPI+SDC ("cluster").
func RunExperiment(name string, o ExperimentOptions) error {
	if o.Out == nil {
		return fmt.Errorf("sdcmd: ExperimentOptions.Out is required")
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
	if o.CSV {
		return harness.RunCSV(name, opts, o.Out)
	}
	switch name {
	case "table1":
		res, err := harness.RunTable1(opts)
		if err != nil {
			return err
		}
		return res.Render(o.Out)
	case "fig9":
		res, err := harness.RunFig9(opts)
		if err != nil {
			return err
		}
		return res.Render(o.Out)
	case "reorder":
		res, err := harness.RunReorder(opts)
		if err != nil {
			return err
		}
		return res.Render(o.Out)
	case "numa":
		res, err := harness.RunNUMA(opts)
		if err != nil {
			return err
		}
		return res.Render(o.Out)
	case "cluster":
		res, err := harness.RunCluster(opts)
		if err != nil {
			return err
		}
		return res.Render(o.Out)
	default:
		return fmt.Errorf("sdcmd: unknown experiment %q (want table1, fig9, reorder, numa or cluster)", name)
	}
}

// Strategies lists the supported strategy names.
func Strategies() []string {
	out := make([]string, len(strategy.Kinds))
	for i, k := range strategy.Kinds {
		out[i] = k.String()
	}
	return out
}
