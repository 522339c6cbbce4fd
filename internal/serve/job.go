// Package serve is the simulation job service behind cmd/sdcserve: an
// HTTP/JSON front end that accepts EAM molecular-dynamics jobs, runs
// each one under the guard supervisor on a shard scheduler multiplexing
// a bounded CPU budget, and exposes results plus aggregated telemetry.
//
// The layering mirrors the rest of the repo: this package is control
// plane. All simulation work still routes through internal/md and
// internal/guard, every parallel force sweep through strategy.Pool; the
// goroutines here (shard workers, the HTTP accept loop) carry no
// force-loop parallelism, which is why the package holds a lint
// pool-only-go allow-list entry.
package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"time"

	"sdcmd/internal/core"
	"sdcmd/internal/lattice"
	"sdcmd/internal/md"
	"sdcmd/internal/potential"
	"sdcmd/internal/strategy"
	"sdcmd/internal/telemetry"
)

// JobSpec is the client-facing simulation configuration. The zero value
// of each field selects the same default as the sdcmd facade, so a
// minimal POST body like {"steps": 100} is a valid job. Specs are
// normalized (defaults applied, thread count clamped to the scheduler's
// per-shard CPU share) before hashing, so the content-addressed cache
// key reflects the configuration that actually executes.
type JobSpec struct {
	// Potential selects the EAM parametrization: "eam-fs"
	// (Finnis–Sinclair, the default) or "eam-johnson".
	Potential string `json:"potential,omitempty"`
	// Cells is the bcc supercell count per side (default 8).
	Cells int `json:"cells,omitempty"`
	// Temperature is the initial Maxwell-Boltzmann temperature in K
	// (default 300).
	Temperature float64 `json:"temperature,omitempty"`
	// Seed makes runs reproducible (default 1).
	Seed int64 `json:"seed,omitempty"`
	// Strategy is one of serial|sdc|cs|atomic|sap|rc (default serial).
	Strategy string `json:"strategy,omitempty"`
	// Threads is the requested worker count; the scheduler clamps it to
	// its per-shard share of the CPU budget (default 1).
	Threads int `json:"threads,omitempty"`
	// Dim is the SDC decomposition dimensionality 1-3 (default 2).
	Dim int `json:"dim,omitempty"`
	// Dt is the timestep in ps (default 1e-3).
	Dt float64 `json:"dt,omitempty"`
	// Skin is the Verlet skin in Å (default 0.5).
	Skin float64 `json:"skin,omitempty"`
	// Steps is the number of timesteps to run (required, > 0).
	Steps int `json:"steps"`
	// Jitter displaces the initial lattice by this amplitude in Å.
	Jitter float64 `json:"jitter,omitempty"`
	// Thermostat, when > 0, enables a Berendsen thermostat with target
	// temperature Thermostat (K) and time constant ThermostatTau
	// (default 0.01 ps).
	Thermostat    float64 `json:"thermostat,omitempty"`
	ThermostatTau float64 `json:"thermostat_tau,omitempty"`
}

// maxCells bounds Cells at the paper's largest case, 120³ bcc cells
// (3 456 000 atoms). A larger lattice cannot be a sensible job on one
// host and would fail only inside the run (an out-of-range make panics
// the server), so admission rejects it.
const maxCells = 120

// normalized applies defaults, validates, and clamps Threads to the
// per-shard CPU share (cpu/shards, at least 1) so no combination of
// concurrent jobs oversubscribes the budget. The returned spec is fully
// explicit: hashing it yields the content-addressed cache key.
func (sp JobSpec) normalized(cpu, shards int) (JobSpec, error) {
	if sp.Potential == "" {
		sp.Potential = "eam-fs"
	}
	if sp.Potential != "eam-fs" && sp.Potential != "eam-johnson" {
		return sp, fmt.Errorf("serve: unknown potential %q (eam-fs|eam-johnson)", sp.Potential)
	}
	if sp.Cells == 0 {
		sp.Cells = 8
	}
	if sp.Cells < 1 {
		return sp, fmt.Errorf("serve: cells %d must be >= 1", sp.Cells)
	}
	if sp.Cells > maxCells {
		return sp, fmt.Errorf("serve: cells %d exceeds the maximum %d", sp.Cells, maxCells)
	}
	if sp.Temperature == 0 {
		sp.Temperature = 300
	}
	if sp.Temperature < 0 {
		return sp, fmt.Errorf("serve: temperature %g must be >= 0", sp.Temperature)
	}
	if sp.Seed == 0 {
		sp.Seed = 1
	}
	if sp.Strategy == "" {
		sp.Strategy = "serial"
	}
	if _, err := strategy.ParseKind(sp.Strategy); err != nil {
		return sp, err
	}
	if sp.Threads == 0 {
		sp.Threads = 1
	}
	if sp.Threads < 1 {
		return sp, fmt.Errorf("serve: threads %d must be >= 1", sp.Threads)
	}
	if share := perShardThreads(cpu, shards); sp.Threads > share {
		sp.Threads = share
	}
	if sp.Dim == 0 {
		sp.Dim = 2
	}
	if sp.Dim < 1 || sp.Dim > 3 {
		return sp, fmt.Errorf("serve: dim %d must be 1, 2 or 3", sp.Dim)
	}
	if sp.Dt == 0 {
		sp.Dt = 1e-3
	}
	if sp.Dt < 0 {
		return sp, fmt.Errorf("serve: dt %g must be > 0", sp.Dt)
	}
	if sp.Skin == 0 {
		sp.Skin = 0.5
	}
	if sp.Skin < 0 {
		return sp, fmt.Errorf("serve: skin %g must be >= 0", sp.Skin)
	}
	if sp.Steps <= 0 {
		return sp, fmt.Errorf("serve: steps %d must be > 0", sp.Steps)
	}
	if sp.Jitter < 0 {
		return sp, fmt.Errorf("serve: jitter %g must be >= 0", sp.Jitter)
	}
	if sp.Thermostat > 0 && sp.ThermostatTau < 0 {
		return sp, fmt.Errorf("serve: thermostat_tau %g must be > 0", sp.ThermostatTau)
	}
	if sp.Thermostat > 0 && sp.ThermostatTau == 0 {
		sp.ThermostatTau = 0.01
	}
	if sp.Thermostat <= 0 {
		sp.ThermostatTau = 0
	}
	return sp, nil
}

// perShardThreads is each shard's slice of the CPU budget: an even
// split, never below one worker.
func perShardThreads(cpu, shards int) int {
	if shards < 1 {
		shards = 1
	}
	share := cpu / shards
	if share < 1 {
		share = 1
	}
	return share
}

// hash returns the content address of a normalized spec: sha256 over
// its canonical JSON encoding (struct field order is fixed, all fields
// explicit after normalization).
func (sp JobSpec) hash() (string, error) {
	b, err := json.Marshal(sp)
	if err != nil {
		return "", fmt.Errorf("serve: hash spec: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// mdConfig translates the structural half of the spec into an
// md.Config, mirroring the sdcmd facade's mapping.
func (sp JobSpec) mdConfig(rec *telemetry.Recorder) (md.Config, error) {
	kind, err := strategy.ParseKind(sp.Strategy)
	if err != nil {
		return md.Config{}, err
	}
	params := potential.DefaultFeParams()
	if sp.Potential == "eam-johnson" {
		params = potential.JohnsonFeParams()
	}
	pot, err := potential.NewFeEAM(params)
	if err != nil {
		return md.Config{}, err
	}
	cfg := md.Config{
		Pot:       pot,
		Strategy:  kind,
		Threads:   sp.Threads,
		Dim:       core.Dim(sp.Dim),
		Skin:      sp.Skin,
		Dt:        sp.Dt,
		Telemetry: rec,
	}
	if sp.Thermostat > 0 {
		cfg.Thermostat = &md.Berendsen{Target: sp.Thermostat, Tau: sp.ThermostatTau}
	}
	return cfg, nil
}

// buildSystem translates the state half of the spec into an
// initialized bcc-Fe system.
func (sp JobSpec) buildSystem() (*md.System, error) {
	cfg, err := lattice.Build(lattice.BCC, sp.Cells, sp.Cells, sp.Cells, lattice.FeLatticeConstant)
	if err != nil {
		return nil, err
	}
	if sp.Jitter > 0 {
		cfg.Jitter(sp.Jitter, sp.Seed)
	}
	sys := md.FromLattice(cfg)
	if err := sys.InitVelocities(sp.Temperature, sp.Seed); err != nil {
		return nil, err
	}
	return sys, nil
}

// Job states, as reported in Status.State.
const (
	// StateQueued: admitted, waiting for a shard.
	StateQueued = "queued"
	// StateRunning: executing on a shard.
	StateRunning = "running"
	// StateDone: completed; the result is available.
	StateDone = "done"
	// StateFailed: the run returned an error.
	StateFailed = "failed"
	// StateCanceled: stopped by a client DELETE.
	StateCanceled = "canceled"
	// StateInterrupted: checkpointed by a server drain; a restarted
	// server with the same state directory resumes it.
	StateInterrupted = "interrupted"
)

// Result is the terminal output of a completed job.
type Result struct {
	// Steps is the number of timesteps completed.
	Steps int `json:"steps"`
	// PotentialEnergy, KineticEnergy and TotalEnergy are the final
	// energies in eV.
	PotentialEnergy float64 `json:"potential_energy_ev"`
	KineticEnergy   float64 `json:"kinetic_energy_ev"`
	TotalEnergy     float64 `json:"total_energy_ev"`
	// Temperature is the final kinetic temperature in K.
	Temperature float64 `json:"temperature_k"`
	// WallSeconds is the execution wall time of the run that produced
	// the result (0 when served from cache).
	WallSeconds float64 `json:"wall_seconds"`
	// Cached reports whether the result was served from the
	// content-addressed cache instead of a fresh run.
	Cached bool `json:"cached"`
}

// Status is the client-facing view of a job.
type Status struct {
	ID    string `json:"id"`
	State string `json:"state"`
	// Hash is the content address of the normalized spec — the cache
	// and dedup key.
	Hash string `json:"hash"`
	// Step is the current absolute step counter; it stops advancing
	// once the job reaches a terminal state.
	Step int `json:"step"`
	// Steps is the target step count.
	Steps int     `json:"steps"`
	Error string  `json:"error,omitempty"`
	Spec  JobSpec `json:"spec"`
	// Tenant is the owning tenant's name ("anonymous" when tenancy is
	// not configured).
	Tenant string `json:"tenant,omitempty"`
}

// Job is one admitted simulation. All mutable fields are guarded by
// the owning scheduler's mutex; the event log has its own leaf mutex.
type Job struct {
	id     string
	hash   string
	spec   JobSpec // normalized
	tenant string  // owning tenant name

	state   string
	step    int
	errMsg  string
	result  *Result
	rec     *telemetry.Recorder
	created time.Time

	// events is the per-job live feed behind GET /jobs/{id}/events:
	// status transitions, progress ticks and telemetry stream lines.
	events *eventLog

	// cancel stops the running job with a cause (client cancel or
	// drain); nil until the job starts.
	cancel func(error)
	// skip marks a queued job that must not start (canceled while
	// queued, or persisted for restart during drain).
	skip bool
	// resumeFrom is the drain checkpoint to resume from ("" = fresh).
	resumeFrom string
}

// statusLocked snapshots the job; the scheduler mutex must be held.
func (j *Job) statusLocked() Status {
	return Status{
		ID:     j.id,
		State:  j.state,
		Hash:   j.hash,
		Step:   j.step,
		Steps:  j.spec.Steps,
		Error:  j.errMsg,
		Spec:   j.spec,
		Tenant: j.tenant,
	}
}

// publishStatusLocked appends the job's current status to its event
// feed; the scheduler mutex must be held (the event log's own mutex is
// a leaf below it). Terminal states also close the feed so attached
// SSE streams end cleanly — but the drain path closes the log earlier,
// before the resume manifest is persisted, and publish-after-close is
// a no-op, so ordering there is owned by the drain code.
func (j *Job) publishStatusLocked() {
	st := j.statusLocked()
	b, err := json.Marshal(st)
	if err != nil {
		return // Status marshals from plain fields; unreachable
	}
	j.events.publish(EventStatus, b)
	switch st.State {
	case StateDone, StateFailed, StateCanceled, StateInterrupted:
		j.events.closeLog()
	}
}
