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

	"sdcmd/internal/md"
	"sdcmd/internal/telemetry"
)

// JobSpec is the client-facing simulation configuration: an md.Job
// plus the step count, under JSON names. The zero value of each field
// selects md.DefaultJob's, so a minimal POST body like {"steps": 100}
// is a valid job. Specs are normalized (defaults applied, thread count
// clamped to the scheduler's per-shard CPU share) before hashing, so
// the content-addressed cache key reflects the configuration that
// actually executes. The fields, their order and their JSON names are
// frozen: they are the bytes the key hashes, so stored results and
// drain manifests stay findable across releases.
type JobSpec struct {
	// Potential selects the EAM parametrization: "eam-fs"
	// (Finnis–Sinclair, the default) or "eam-johnson".
	Potential string `json:"potential,omitempty"`
	// Cells is the bcc supercell count per side.
	Cells int `json:"cells,omitempty"`
	// Temperature is the initial Maxwell-Boltzmann temperature in K.
	Temperature float64 `json:"temperature,omitempty"`
	// Seed makes runs reproducible.
	Seed int64 `json:"seed,omitempty"`
	// Strategy is one of serial|sdc|cs|atomic|sap|rc.
	Strategy string `json:"strategy,omitempty"`
	// Threads is the requested worker count; the scheduler clamps it to
	// its per-shard share of the CPU budget.
	Threads int `json:"threads,omitempty"`
	// Dim is the SDC decomposition dimensionality 1-3.
	Dim int `json:"dim,omitempty"`
	// Dt is the timestep in ps.
	Dt float64 `json:"dt,omitempty"`
	// Skin is the Verlet skin in Å.
	Skin float64 `json:"skin,omitempty"`
	// Steps is the number of timesteps to run (required, > 0).
	Steps int `json:"steps"`
	// Jitter displaces the initial lattice by this amplitude in Å.
	Jitter float64 `json:"jitter,omitempty"`
	// Thermostat, when > 0, enables a Berendsen thermostat with target
	// temperature Thermostat (K) and time constant ThermostatTau (ps).
	Thermostat    float64 `json:"thermostat,omitempty"`
	ThermostatTau float64 `json:"thermostat_tau,omitempty"`
}

// maxCells bounds Cells at the paper's largest case, 120³ bcc cells
// (3 456 000 atoms). A larger lattice cannot be a sensible job on one
// host and would fail only inside the run (an out-of-range make panics
// the server), so admission rejects it.
const maxCells = 120

// job is the run the spec describes.
func (sp JobSpec) job() md.Job {
	return md.Job{
		Potential: sp.Potential, Cells: sp.Cells, Temperature: sp.Temperature, Seed: sp.Seed,
		Strategy: sp.Strategy, Threads: sp.Threads, Dim: sp.Dim, Dt: sp.Dt, Skin: sp.Skin,
		Jitter: sp.Jitter, Thermostat: sp.Thermostat, ThermostatTau: sp.ThermostatTau,
	}
}

// normalized applies md.Job's defaults and checks, adds the service's
// own (steps > 0, at most maxCells), and clamps Threads to the
// per-shard CPU share (cpu/shards, at least 1) so no combination of
// concurrent jobs oversubscribes the budget. The returned spec is fully
// explicit: hashing it yields the content-addressed cache key.
func (sp JobSpec) normalized(cpu, shards int) (JobSpec, error) {
	j := sp.job().WithDefaults()
	if err := j.Validate(); err != nil {
		return sp, fmt.Errorf("serve: %w", err)
	}
	if j.Cells > maxCells {
		return sp, fmt.Errorf("serve: cells %d exceeds the maximum %d", j.Cells, maxCells)
	}
	if sp.Steps <= 0 {
		return sp, fmt.Errorf("serve: steps %d must be > 0", sp.Steps)
	}
	if share := perShardThreads(cpu, shards); j.Threads > share {
		j.Threads = share
	}
	return JobSpec{
		Potential: j.Potential, Cells: j.Cells, Temperature: j.Temperature, Seed: j.Seed,
		Strategy: j.Strategy, Threads: j.Threads, Dim: j.Dim, Dt: j.Dt, Skin: j.Skin,
		Steps: sp.Steps, Jitter: j.Jitter, Thermostat: j.Thermostat, ThermostatTau: j.ThermostatTau,
	}, nil
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

// mdConfig maps a normalized spec to the md.Config its run uses.
func (sp JobSpec) mdConfig(rec *telemetry.Recorder) (md.Config, error) {
	cfg, err := sp.job().Config()
	cfg.Telemetry = rec
	return cfg, err
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
	// Rollbacks counts the supervisor's rollbacks in the run (omitted
	// when 0). Each one halved the timestep or stepped the strategy
	// down, so the run is not the one its spec describes: the result
	// goes to its job but into neither the cache nor the store.
	Rollbacks int `json:"rollbacks,omitempty"`
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

	state  string
	step   int
	errMsg string
	result *Result
	rec    *telemetry.Recorder

	// events is the per-job live feed behind GET /jobs/{id}/events:
	// status transitions, progress ticks and telemetry stream lines.
	events *eventLog

	// cancel stops the running job with a cause (client cancel or
	// drain); nil until the job starts and again once it ends.
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
