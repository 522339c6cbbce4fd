package md

import (
	"fmt"

	"sdcmd/internal/core"
	"sdcmd/internal/lattice"
	"sdcmd/internal/potential"
	"sdcmd/internal/strategy"
)

// Job describes one bcc-Fe run the way every front end states it: the
// sdcmd facade and the mdrun CLI on it, and the sdcserve job service.
// The zero value of each field selects the default in DefaultJob, and
// Config and System map the description to a Simulator's inputs, so a
// default or a mapping rule has exactly one home. Errors carry no
// package prefix; each front end adds its own.
type Job struct {
	// Potential is "eam-fs" (Finnis–Sinclair) or "eam-johnson" (the
	// same pair and density terms with Johnson's universal embedding).
	Potential string
	// Cells is the bcc supercell count per side (2·Cells³ atoms).
	Cells int
	// Temperature is the initial Maxwell–Boltzmann temperature in K.
	Temperature float64
	// Seed drives the lattice jitter and the velocity draw.
	Seed int64
	// Strategy is a strategy.ParseKind name.
	Strategy string
	// Threads is the worker count for parallel strategies.
	Threads int
	// Dim is the SDC dimensionality, 1 to 3.
	Dim int
	// Dt is the timestep in ps and Skin the Verlet skin in Å.
	Dt, Skin float64
	// Jitter displaces the initial lattice by up to this amplitude in
	// Å (0: perfect crystal).
	Jitter float64
	// Thermostat, when > 0, is the target temperature in K of a
	// Berendsen thermostat with time constant ThermostatTau in ps.
	Thermostat, ThermostatTau float64
}

// DefaultThermostatTau is the Berendsen time constant in ps a Job gets
// when it sets a thermostat target but no time constant.
const DefaultThermostatTau = 0.01

// DefaultJob returns the run every front end starts from: 8 cells
// (1024 atoms) of bcc Fe at 300 K, seed 1, the Finnis–Sinclair
// potential, and DefaultConfig's strategy, threads, dimensionality,
// timestep and skin, with no thermostat.
func DefaultJob() Job {
	c := DefaultConfig()
	return Job{
		Potential:   "eam-fs",
		Cells:       8,
		Temperature: 300,
		Seed:        1,
		Strategy:    c.Strategy.String(),
		Threads:     c.Threads,
		Dim:         int(c.Dim),
		Dt:          c.Dt,
		Skin:        c.Skin,
	}
}

// WithDefaults returns j with each zero field set from DefaultJob. The
// thermostat time constant defaults only when a target is set, and is
// cleared when none is, so two jobs that run the same way compare equal.
func (j Job) WithDefaults() Job {
	d := DefaultJob()
	if j.Potential == "" {
		j.Potential = d.Potential
	}
	if j.Cells == 0 {
		j.Cells = d.Cells
	}
	if j.Temperature == 0 {
		j.Temperature = d.Temperature
	}
	if j.Seed == 0 {
		j.Seed = d.Seed
	}
	if j.Strategy == "" {
		j.Strategy = d.Strategy
	}
	if j.Threads == 0 {
		j.Threads = d.Threads
	}
	if j.Dim == 0 {
		j.Dim = d.Dim
	}
	if j.Dt == 0 {
		j.Dt = d.Dt
	}
	if j.Skin == 0 {
		j.Skin = d.Skin
	}
	switch {
	case j.Thermostat <= 0:
		j.ThermostatTau = 0
	case j.ThermostatTau == 0:
		j.ThermostatTau = DefaultThermostatTau
	}
	return j
}

// Validate reports the first field of a defaulted job that no run can
// use. It builds nothing, so a service can check a job at admission.
func (j Job) Validate() error {
	if _, err := j.feParams(); err != nil {
		return err
	}
	if j.Cells < 1 {
		return fmt.Errorf("cells %d must be >= 1", j.Cells)
	}
	if j.Temperature < 0 {
		return fmt.Errorf("temperature %g must be >= 0", j.Temperature)
	}
	if _, err := strategy.ParseKind(j.Strategy); err != nil {
		return err
	}
	if j.Threads < 1 {
		return fmt.Errorf("threads %d must be >= 1", j.Threads)
	}
	if j.Dim < 1 || j.Dim > 3 {
		return fmt.Errorf("dim %d must be 1, 2 or 3", j.Dim)
	}
	if j.Dt < 0 {
		return fmt.Errorf("dt %g must be > 0", j.Dt)
	}
	if j.Skin < 0 {
		return fmt.Errorf("skin %g must be >= 0", j.Skin)
	}
	if j.Jitter < 0 {
		return fmt.Errorf("jitter %g must be >= 0", j.Jitter)
	}
	if j.Thermostat > 0 && j.ThermostatTau < 0 {
		return fmt.Errorf("thermostat_tau %g must be > 0", j.ThermostatTau)
	}
	return nil
}

// feParams maps the potential name to its Fe parameters.
func (j Job) feParams() (potential.FeParams, error) {
	switch j.Potential {
	case "eam-fs":
		return potential.DefaultFeParams(), nil
	case "eam-johnson":
		return potential.JohnsonFeParams(), nil
	}
	return potential.FeParams{}, fmt.Errorf("unknown potential %q (eam-fs|eam-johnson)", j.Potential)
}

// Config maps the structural half of a validated job (potential,
// strategy, threads, dimensionality, timestep, skin, thermostat) to a
// Config; the caller adds Telemetry and BlockReorder.
func (j Job) Config() (Config, error) {
	params, err := j.feParams()
	if err != nil {
		return Config{}, err
	}
	pot, err := potential.NewFeEAM(params)
	if err != nil {
		return Config{}, err
	}
	kind, err := strategy.ParseKind(j.Strategy)
	if err != nil {
		return Config{}, err
	}
	cfg := Config{
		Pot:      pot,
		Strategy: kind,
		Threads:  j.Threads,
		Dim:      core.Dim(j.Dim),
		Skin:     j.Skin,
		Dt:       j.Dt,
	}
	if j.Thermostat > 0 {
		cfg.Thermostat = &Berendsen{Target: j.Thermostat, Tau: j.ThermostatTau}
	}
	return cfg, nil
}

// System builds the initial state of a validated job: the bcc-Fe
// lattice, jittered when Jitter > 0, with Maxwell–Boltzmann velocities
// at Temperature, both drawn from Seed.
func (j Job) System() (*System, error) {
	cfg, err := lattice.Build(lattice.BCC, j.Cells, j.Cells, j.Cells, lattice.FeLatticeConstant)
	if err != nil {
		return nil, err
	}
	if j.Jitter > 0 {
		cfg.Jitter(j.Jitter, j.Seed)
	}
	sys := FromLattice(cfg)
	if err := sys.InitVelocities(j.Temperature, j.Seed); err != nil {
		return nil, err
	}
	return sys, nil
}
