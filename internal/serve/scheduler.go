package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"log"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"sdcmd/internal/atomicio"
	"sdcmd/internal/guard"
	"sdcmd/internal/md"
	"sdcmd/internal/store"
	"sdcmd/internal/telemetry"
)

// Cancellation causes, distinguished via context.Cause: a client DELETE
// abandons the job, a server drain checkpoints it for resume.
var (
	errClientCancel = errors.New("serve: job canceled by client")
	errDrain        = errors.New("serve: server draining")
)

// Options configures the scheduler. Zero fields take defaults.
type Options struct {
	// MaxJobs is the number of shards — jobs running concurrently
	// (default 2).
	MaxJobs int
	// Queue is the admission queue capacity beyond the running jobs;
	// submissions beyond it are rejected with a backpressure error
	// (default 16).
	Queue int
	// CPU is the total worker-thread budget split evenly across shards
	// (default runtime.NumCPU()). Each job's Threads is clamped to its
	// shard's share, so MaxJobs concurrent jobs never oversubscribe.
	CPU int
	// StateDir, when non-empty, enables drain persistence: Drain
	// checkpoints in-flight jobs there (<id>.sdck + <id>.json manifest)
	// and a new scheduler over the same directory resumes them.
	StateDir string
	// CheckEvery is the guard invariant/snapshot interval and the
	// cancellation-visible chunk size in steps (default 50). The job
	// status Step counter advances at this granularity; cancellation
	// itself stops the integrator within one MD step.
	CheckEvery int
	// Store, when non-nil, is the durable result store: completed
	// results are written through to it, and Submit consults it after an
	// in-memory cache miss so cache hits survive restarts.
	Store *store.Store
	// Tenants, when non-nil, enables tenancy: API keys, per-tenant
	// quotas and weighted fair-share dispatch. Without it every job
	// runs as the built-in anonymous tenant with unlimited quotas.
	Tenants *TenantSet
	// StreamEvery is the cadence of per-job telemetry events on the
	// GET /jobs/{id}/events feed (default 250ms).
	StreamEvery time.Duration
	// Heartbeat is the SSE comment-line cadence keeping idle streams
	// alive through proxies (default 15s).
	Heartbeat time.Duration
}

func (o Options) withDefaults() Options {
	if o.MaxJobs <= 0 {
		o.MaxJobs = 2
	}
	if o.Queue <= 0 {
		o.Queue = 16
	}
	if o.CPU <= 0 {
		o.CPU = runtime.NumCPU()
	}
	if o.CheckEvery <= 0 {
		o.CheckEvery = 50
	}
	if o.StreamEvery <= 0 {
		o.StreamEvery = 250 * time.Millisecond
	}
	if o.Heartbeat <= 0 {
		o.Heartbeat = 15 * time.Second
	}
	return o
}

// Counters are the scheduler's lifetime totals, exposed on /metrics.
// Plain ints guarded by the scheduler mutex: this is control plane, and
// the atomics discipline reserves sync/atomic for the CS reducer and
// telemetry.
type Counters struct {
	Submitted int `json:"submitted"`
	Completed int `json:"completed"`
	Failed    int `json:"failed"`
	Canceled  int `json:"canceled"`
	Rejected  int `json:"rejected"`
	CacheHits int `json:"cache_hits"`
	Coalesced int `json:"coalesced"`
	Resumed   int `json:"resumed"`
	// QuotaRejected counts submissions refused by a tenant quota
	// (429s that are the tenant's budget, not global backpressure).
	QuotaRejected int `json:"quota_rejected"`
	// StoreHits counts cache hits served from the durable store after
	// the in-memory cache missed (typically across a restart).
	StoreHits int `json:"store_hits"`
	// BadManifests counts corrupt drain manifests quarantined at
	// startup instead of failing the boot.
	BadManifests int `json:"bad_manifests"`
	// StreamsOpened counts SSE event streams accepted; ClientAborts
	// and ServerErrors split HTTP write failures by whose fault they
	// were (the peer vanished vs the server could not render).
	StreamsOpened int `json:"streams_opened"`
	ClientAborts  int `json:"client_aborts"`
	ServerErrors  int `json:"server_errors"`
}

// Scheduler multiplexes simulation jobs over a fixed set of shard
// workers. Admission is bounded (backpressure, not unbounded
// buffering); dispatch is weighted fair-share across tenants; identical
// specs are deduplicated in flight (singleflight) and served from a
// content-addressed result cache once completed.
type Scheduler struct {
	opts  Options
	start time.Time

	mu   sync.Mutex
	cond *sync.Cond // signaled on enqueue, job completion and drain
	jobs map[string]*Job
	// order holds the jobs of jobs in ID order: newJobLocked hands out
	// monotonic j%06d IDs, and the jobs resumed at start are registered
	// in ID order before any new one.
	order  []*Job
	byHash map[string]*Job   // live (queued/running) job per content hash
	cache  map[string]Result // completed results per content hash
	// pending holds each tenant's FIFO of admitted jobs; queued is the
	// total count of non-withdrawn entries across all tenants.
	pending map[string][]*Job
	queued  int
	// running counts jobs in StateRunning: raised at dispatch, lowered
	// at the terminal transition, beside each tenant's Running counter.
	running int
	tstates map[string]*tenantState
	// streamsActive gauges currently-attached SSE clients.
	streamsActive int
	counters      Counters
	draining      bool
	nextID        int
	// recentDurs is a ring of the last durWindow executed-job wall
	// durations in seconds, feeding the Retry-After backpressure hint.
	// Only jobs that actually occupied a shard contribute: cache and
	// store hits complete in microseconds at Submit and would poison
	// the mean. durCount is the lifetime total recorded (the ring index
	// is durCount mod durWindow).
	recentDurs [durWindow]float64
	durCount   int

	wg sync.WaitGroup
}

// SubmitCode classifies a Submit outcome for the HTTP layer.
type SubmitCode int

const (
	// SubmitCreated: a new job was admitted and queued.
	SubmitCreated SubmitCode = iota
	// SubmitCoalesced: an identical job is already queued or running;
	// its status is returned instead (singleflight).
	SubmitCoalesced
	// SubmitCacheHit: an identical job already completed; a done job
	// backed by the cached result is returned without re-running.
	SubmitCacheHit
	// SubmitInvalid: the spec failed validation.
	SubmitInvalid
	// SubmitQueueFull: the admission queue is full — back off and
	// retry.
	SubmitQueueFull
	// SubmitQuotaExceeded: the tenant is over one of its own quotas;
	// the error is a *QuotaError carrying a quota-scoped Retry-After.
	SubmitQuotaExceeded
	// SubmitDraining: the server is shutting down.
	SubmitDraining
)

// NewScheduler starts the shard workers and, when StateDir holds drain
// manifests from a previous process, re-admits those jobs to resume
// from their checkpoints.
func NewScheduler(opts Options) (*Scheduler, error) {
	opts = opts.withDefaults()
	s := &Scheduler{
		opts:    opts,
		start:   time.Now(),
		jobs:    make(map[string]*Job),
		byHash:  make(map[string]*Job),
		cache:   make(map[string]Result),
		pending: make(map[string][]*Job),
		tstates: make(map[string]*tenantState),
	}
	s.cond = sync.NewCond(&s.mu)
	var resumed []*Job
	if opts.StateDir != "" {
		if err := os.MkdirAll(opts.StateDir, 0o755); err != nil {
			return nil, fmt.Errorf("serve: state dir: %w", err)
		}
		var err error
		if resumed, err = s.scanManifests(); err != nil {
			return nil, err
		}
	}
	// Resumed jobs bypass the Queue capacity check: restart
	// re-admission must never be rejected.
	s.mu.Lock()
	for _, j := range resumed {
		s.jobs[j.id] = j
		s.order = append(s.order, j)
		s.byHash[j.hash] = j
		s.counters.Resumed++
		s.tenantStateLocked(j.tenant)
		s.enqueueLocked(j)
		j.publishStatusLocked()
	}
	s.mu.Unlock()
	for i := 0; i < opts.MaxJobs; i++ {
		s.wg.Add(1)
		// Shard workers are scheduler control plane: each runs whole
		// jobs sequentially; the force-loop parallelism inside a job
		// still routes through strategy.Pool.
		go s.worker()
	}
	return s, nil
}

// resolveTenant maps a manifest tenant name back to a live tenant:
// registered name, or the anonymous fallback when tenancy is off or
// the tenants file no longer lists it (the job still must resume).
func (s *Scheduler) resolveTenant(name string) *Tenant {
	if t := s.opts.Tenants.ByName(name); t != nil {
		return t
	}
	return anonymous()
}

// tenantStateLocked returns (creating on first use) a tenant's runtime
// state; the mutex must be held.
func (s *Scheduler) tenantStateLocked(name string) *tenantState {
	if ts, ok := s.tstates[name]; ok {
		return ts
	}
	ts := newTenantState(s.resolveTenant(name), time.Now())
	s.tstates[name] = ts
	return ts
}

// scanManifests loads drain manifests left by a previous process,
// in ID order so resumption is deterministic. A manifest that cannot
// be loaded is quarantined (renamed aside) and skipped: one corrupt
// file must not stop the server from starting and resuming every
// healthy job. Leftover atomic-write temps are swept first.
func (s *Scheduler) scanManifests() ([]*Job, error) {
	if n, err := atomicio.SweepTemps(atomicio.OS, s.opts.StateDir, ""); err != nil {
		log.Printf("serve: temp sweep in %s: %v", s.opts.StateDir, err)
	} else if n > 0 {
		log.Printf("serve: swept %d leftover temp file(s) from %s", n, s.opts.StateDir)
	}
	entries, err := os.ReadDir(s.opts.StateDir)
	if err != nil {
		return nil, fmt.Errorf("serve: scan state dir: %w", err)
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".json") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	var out []*Job
	for _, name := range names {
		path := filepath.Join(s.opts.StateDir, name)
		j, err := s.loadManifest(path, name)
		if err != nil {
			s.quarantineManifest(path, err)
			continue
		}
		out = append(out, j)
	}
	return out, nil
}

// loadManifest reads one drain manifest and rebuilds its job. The
// resumed run reads, writes and finally removes the files the job ID
// and checkpoint name, so it accepts only the names this scheduler
// gives out: the ID is the file name in newJobLocked's j%06d form, and
// the checkpoint is empty or that job's file in the state directory.
func (s *Scheduler) loadManifest(path, file string) (*Job, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, err
	}
	n, err := strconv.Atoi(strings.TrimPrefix(m.ID, "j"))
	if err != nil || n < 0 || fmt.Sprintf("j%06d", n) != m.ID || file != m.ID+".json" {
		return nil, fmt.Errorf("serve: manifest %s names job %q", file, m.ID)
	}
	if m.Checkpoint != "" && m.Checkpoint != s.checkpointPath(m.ID) {
		return nil, fmt.Errorf("serve: manifest %s names checkpoint %q", file, m.Checkpoint)
	}
	// Key the job by the spec it will run, whatever the manifest's hash
	// says, so its result is stored under the key of the run that made it.
	h, err := m.Spec.hash()
	if err != nil {
		return nil, err
	}
	if n >= s.nextID {
		s.nextID = n + 1
	}
	return &Job{id: m.ID, hash: h, spec: m.Spec, tenant: s.resolveTenant(m.Tenant).Name,
		state: StateQueued, step: m.Step, events: newEventLog(), resumeFrom: m.Checkpoint}, nil
}

// quarantineManifest moves a corrupt manifest to <name>.corrupt so the
// evidence survives for inspection but never blocks another startup.
func (s *Scheduler) quarantineManifest(path string, cause error) {
	dst := path + ".corrupt"
	if err := os.Rename(path, dst); err != nil {
		log.Printf("serve: quarantine manifest %s: %v (corrupt: %v)", path, err, cause)
		return
	}
	log.Printf("serve: quarantined corrupt manifest %s -> %s: %v", path, dst, cause)
	s.counters.BadManifests++
}

// manifest is the on-disk record of a job interrupted by a drain.
type manifest struct {
	ID string `json:"id"`
	// Hash is the job's store key; only older builds read it back.
	Hash string  `json:"hash"`
	Spec JobSpec `json:"spec"`
	// Tenant is the owning tenant's name; the restarted server maps it
	// back through its tenants file (anonymous when unknown).
	Tenant string `json:"tenant,omitempty"`
	// Step is the absolute step the checkpoint holds (0 when the job
	// never started).
	Step int `json:"step"`
	// Checkpoint is the path of the binary state file; empty means the
	// job restarts from its spec's initial lattice.
	Checkpoint string `json:"checkpoint,omitempty"`
}

func (s *Scheduler) manifestPath(id string) string {
	return filepath.Join(s.opts.StateDir, id+".json")
}

func (s *Scheduler) checkpointPath(id string) string {
	return filepath.Join(s.opts.StateDir, id+".sdck")
}

// writeManifest persists a job's resume record atomically (temp file +
// fsync + rename + parent-dir fsync, the shared atomicio discipline).
func (s *Scheduler) writeManifest(m manifest) error {
	b, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("serve: encode manifest: %w", err)
	}
	if err := atomicio.WriteFileData(atomicio.OS, s.manifestPath(m.ID), b); err != nil {
		return fmt.Errorf("serve: write manifest %s: %w", m.ID, err)
	}
	return nil
}

// removeStateFiles drops a terminal job's manifest and checkpoint.
// Best-effort: a missing file is the normal case.
func (s *Scheduler) removeStateFiles(id string) {
	if s.opts.StateDir == "" {
		return
	}
	for _, p := range []string{s.manifestPath(id), s.checkpointPath(id)} {
		if err := os.Remove(p); err != nil && !errors.Is(err, fs.ErrNotExist) {
			// Leftover files are re-scanned (manifest) or orphaned
			// (checkpoint) but never corrupt results; nothing to do.
			continue
		}
	}
}

// Submit admits one job as the anonymous tenant — the path used when
// tenancy is not configured.
func (s *Scheduler) Submit(spec JobSpec) (Status, SubmitCode, error) {
	return s.SubmitAs(nil, spec)
}

// SubmitAs validates, normalizes and admits one job for a tenant (nil
// means anonymous). The returned code tells the transport layer which
// HTTP status to map it to; a SubmitQuotaExceeded error is a
// *QuotaError carrying the quota-scoped Retry-After hint.
func (s *Scheduler) SubmitAs(t *Tenant, spec JobSpec) (Status, SubmitCode, error) {
	if t == nil {
		t = anonymous()
	}
	norm, err := spec.normalized(s.opts.CPU, s.opts.MaxJobs)
	if err != nil {
		return Status{}, SubmitInvalid, err
	}
	h, err := norm.hash()
	if err != nil {
		return Status{}, SubmitInvalid, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return Status{}, SubmitDraining, errors.New("serve: draining, not accepting jobs")
	}
	ts := s.tenantStateLocked(t.Name)
	res, hit := s.cache[h]
	if !hit && s.opts.Store != nil {
		// Memory miss: the durable store may still hold the result from
		// a previous process — it is what makes cache hits survive
		// restarts.
		if e, ok := s.opts.Store.Get(h); ok {
			if err := json.Unmarshal(e.Result, &res); err != nil {
				log.Printf("serve: store entry %s undecodable as result: %v", h, err)
			} else {
				s.cache[h] = res
				s.counters.StoreHits++
				hit = true
			}
		}
	}
	if hit {
		// Content-addressed cache hit: materialize a done job backed by
		// the stored result; no simulation runs, no quota is consumed,
		// and — deliberately — no entry joins the duration ring: a
		// microsecond "job" would poison the Retry-After mean.
		j := s.newJobLocked(t.Name, norm, h)
		res.Cached = true
		res.WallSeconds = 0
		j.result = &res
		j.state = StateDone
		j.step = norm.Steps
		s.counters.CacheHits++
		ts.counters.CacheHits++
		j.publishStatusLocked()
		return j.statusLocked(), SubmitCacheHit, nil
	}
	if live, ok := s.byHash[h]; ok {
		// Singleflight: an identical job is already in flight; share it.
		s.counters.Coalesced++
		return live.statusLocked(), SubmitCoalesced, nil
	}
	// Tenant quotas first: a tenant at quota gets a quota-scoped hint
	// even when the global queue is empty. The global capacity check
	// follows for tenants within budget.
	if err := ts.admitLocked(norm.Steps, time.Now(), s.meanDurLocked()); err != nil {
		s.counters.QuotaRejected++
		ts.counters.QuotaRejected++
		return Status{}, SubmitQuotaExceeded, err
	}
	if s.queued >= s.opts.Queue {
		s.counters.Rejected++
		return Status{}, SubmitQueueFull, fmt.Errorf("serve: admission queue full (%d queued)", s.queued)
	}
	j := s.newJobLocked(t.Name, norm, h)
	j.state = StateQueued
	s.byHash[h] = j
	s.enqueueLocked(j)
	s.counters.Submitted++
	ts.counters.Submitted++
	j.publishStatusLocked()
	return j.statusLocked(), SubmitCreated, nil
}

// newJobLocked allocates and registers a job; the mutex must be held.
func (s *Scheduler) newJobLocked(tenant string, spec JobSpec, hash string) *Job {
	id := fmt.Sprintf("j%06d", s.nextID)
	s.nextID++
	j := &Job{id: id, hash: hash, spec: spec, tenant: tenant, events: newEventLog()}
	s.jobs[id] = j
	s.order = append(s.order, j)
	return j
}

// enqueueLocked appends a job to its tenant's pending queue and wakes
// one worker. A tenant going from idle to ready has its fair-share
// pass pulled up to the active minimum so accumulated idle credit
// cannot starve everyone else with a burst.
func (s *Scheduler) enqueueLocked(j *Job) {
	ts := s.tstates[j.tenant]
	if len(s.pending[j.tenant]) == 0 {
		if mp, ok := s.minActivePassLocked(); ok && ts.pass < mp {
			ts.pass = mp
		}
	}
	s.pending[j.tenant] = append(s.pending[j.tenant], j)
	s.queued++
	ts.counters.Queued++
	s.cond.Signal()
}

// minActivePassLocked is the smallest pass among tenants with pending
// work; false when none have any.
func (s *Scheduler) minActivePassLocked() (float64, bool) {
	lo, ok := 0.0, false
	for name, q := range s.pending {
		if len(q) == 0 {
			continue
		}
		ts := s.tstates[name]
		if !ok || ts.pass < lo {
			lo, ok = ts.pass, true
		}
	}
	return lo, ok
}

// nextJobLocked picks the next job to dispatch under weighted
// fair-share: among tenants with pending work and a free MaxRunning
// slot, the one with the lowest stride pass wins (name-ordered
// tie-break, so dispatch order is deterministic). Withdrawn (skip)
// jobs are discarded in passing — their bookkeeping was already
// settled by Cancel/Drain. Returns nil when nothing is dispatchable.
func (s *Scheduler) nextJobLocked() *Job {
	names := make([]string, 0, len(s.pending))
	for name := range s.pending {
		names = append(names, name)
	}
	sort.Strings(names)
	var (
		best     *tenantState
		bestName string
	)
	for _, name := range names {
		q := s.pending[name]
		for len(q) > 0 && q[0].skip {
			q = q[1:]
		}
		if len(q) == 0 {
			delete(s.pending, name)
			continue
		}
		s.pending[name] = q
		ts := s.tstates[name]
		if mr := ts.tenant.MaxRunning; mr > 0 && ts.counters.Running >= mr {
			continue
		}
		if best == nil || ts.pass < best.pass {
			best, bestName = ts, name
		}
	}
	if best == nil {
		return nil
	}
	q := s.pending[bestName]
	j := q[0]
	if len(q) == 1 {
		delete(s.pending, bestName)
	} else {
		s.pending[bestName] = q[1:]
	}
	s.queued--
	best.counters.Queued--
	best.pass += strideUnit / float64(best.tenant.Weight)
	return j
}

// Get returns a job's status.
func (s *Scheduler) Get(id string) (Status, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return Status{}, false
	}
	return j.statusLocked(), true
}

// Events returns a job's event log for SSE tailing.
func (s *Scheduler) Events(id string) (*eventLog, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, false
	}
	return j.events, true
}

// Result returns a job's result when it is done.
func (s *Scheduler) Result(id string) (Result, Status, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return Result{}, Status{}, false
	}
	if j.state == StateDone && j.result != nil {
		return *j.result, j.statusLocked(), true
	}
	return Result{}, j.statusLocked(), true
}

// Owner reports which tenant a job belongs to.
func (s *Scheduler) Owner(id string) (string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return "", false
	}
	return j.tenant, true
}

// Cancel stops a job in any non-terminal state: a queued job is
// withdrawn before it starts, a running one has its context canceled
// so the integrator stops within one MD step, and an interrupted one
// (drained, awaiting restart) has its resume manifest removed so it
// never comes back. The dispatch path transitions queued→running with
// the context created in the same critical section, so there is no
// window where a cancel can fall between the two and be lost.
// Terminal jobs are left untouched (idempotent).
func (s *Scheduler) Cancel(id string) (Status, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return Status{}, false
	}
	switch j.state {
	case StateQueued:
		j.skip = true
		j.state = StateCanceled
		j.errMsg = "canceled while queued"
		delete(s.byHash, j.hash)
		s.queued--
		ts := s.tenantStateLocked(j.tenant)
		ts.counters.Queued--
		ts.counters.Canceled++
		s.counters.Canceled++
		j.publishStatusLocked()
		s.removeStateFiles(j.id)
	case StateRunning:
		// cancel is non-nil by construction: the worker sets it in the
		// same critical section that publishes StateRunning.
		j.cancel(errClientCancel)
	case StateInterrupted:
		j.state = StateCanceled
		j.errMsg = "canceled after drain interrupt; resume withdrawn"
		s.counters.Canceled++
		s.tenantStateLocked(j.tenant).counters.Canceled++
		j.publishStatusLocked()
		s.removeStateFiles(j.id)
	}
	return j.statusLocked(), true
}

// worker is one shard: it waits for dispatchable work, claims one job
// at a time, and exits once the scheduler drains.
func (s *Scheduler) worker() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		var j *Job
		for {
			if s.draining {
				s.mu.Unlock()
				return
			}
			if j = s.nextJobLocked(); j != nil {
				break
			}
			s.cond.Wait()
		}
		// Atomic dispatch: the queued→running transition, the
		// cancellable context and the telemetry recorder are all
		// installed in one critical section. A Cancel arriving at any
		// point either sees StateQueued (withdraws via skip before this
		// pop) or StateRunning (cancels the context) — there is no
		// in-between state where it could be lost.
		ctx, cancel := context.WithCancelCause(context.Background())
		j.cancel = cancel
		j.state = StateRunning
		j.rec = telemetry.NewRecorder()
		s.running++
		s.tstates[j.tenant].counters.Running++
		j.publishStatusLocked()
		s.mu.Unlock()
		s.runJob(ctx, cancel, j)
	}
}

// runJob executes one claimed job end to end and records its terminal
// state. The caller (worker) has already transitioned it to running.
func (s *Scheduler) runJob(ctx context.Context, cancel context.CancelCauseFunc, j *Job) {
	defer cancel(nil)
	s.mu.Lock()
	spec, resume, rec := j.spec, j.resumeFrom, j.rec
	s.mu.Unlock()

	// Tail the job's recorder onto its event feed for live SSE
	// streaming; the streamer goroutine is joined by Close below.
	str, serr := telemetry.StartStream(&eventWriter{log: j.events}, s.opts.StreamEvery, rec.Snapshot)
	if serr != nil {
		log.Printf("serve: job %s telemetry stream: %v", j.id, serr)
	}

	started := time.Now()
	res, runErr := s.execute(ctx, j, spec, resume, rec)
	cause := context.Cause(ctx)
	if str != nil {
		// Join the streamer before the terminal transition so the final
		// metrics event precedes the terminal status event.
		_ = str.Close()
	}
	// Only a run that never rolled back is the run its spec describes,
	// so only its result is cached under the spec's key.
	cacheable := runErr == nil && res.Rollbacks == 0
	if runErr == nil {
		res.WallSeconds = time.Since(started).Seconds()
	}
	if cacheable {
		// Durable write-through happens here, not in execute: the store
		// retries transient IO with backoff sleeps, which must stay out
		// of context-accepting call paths.
		s.storePut(j.hash, res)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	// Every executed job — done, failed or canceled — contributes its
	// wall time to the Retry-After estimate: all of them occupied a
	// shard for that long. Cache/store hits never reach here.
	s.recentDurs[s.durCount%durWindow] = time.Since(started).Seconds()
	s.durCount++
	if live, ok := s.byHash[j.hash]; ok && live == j {
		delete(s.byHash, j.hash)
	}
	ts := s.tenantStateLocked(j.tenant)
	s.running--
	ts.counters.Running--
	// The job leaves StateRunning below, and Cancel and Drain call
	// cancel only on running jobs: drop the spent func and its context
	// (the deferred cancel above still releases them).
	j.cancel = nil
	switch {
	case runErr == nil:
		j.state = StateDone
		j.result = res
		j.step = res.Steps
		if cacheable {
			s.cache[j.hash] = *res
		}
		s.counters.Completed++
		ts.counters.Completed++
		s.removeStateFiles(j.id)
	case errors.Is(runErr, md.ErrCanceled) && errors.Is(cause, errDrain):
		// execute already flushed the terminal event, checkpointed the
		// state and wrote the resume manifest; the restarted server
		// picks the job up from there.
		j.state = StateInterrupted
		j.errMsg = "interrupted by server drain; resumes on restart"
	case errors.Is(runErr, md.ErrCanceled):
		j.state = StateCanceled
		j.errMsg = "canceled by client"
		s.counters.Canceled++
		ts.counters.Canceled++
		s.removeStateFiles(j.id)
	default:
		j.state = StateFailed
		j.errMsg = runErr.Error()
		s.counters.Failed++
		ts.counters.Failed++
		s.removeStateFiles(j.id)
	}
	j.publishStatusLocked()
	// A finished job may free a MaxRunning slot; waiting workers must
	// re-evaluate their pick.
	s.cond.Broadcast()
}

// storePut writes a completed result through to the durable store.
// Failure degrades the store to memory-only serving and is logged, not
// propagated: a dead disk must not fail jobs that computed fine.
func (s *Scheduler) storePut(hash string, res *Result) {
	if s.opts.Store == nil {
		return
	}
	resJSON, err := json.Marshal(res)
	if err != nil {
		log.Printf("serve: encode result for store: %v", err)
		return
	}
	if err := s.opts.Store.Put(hash, store.Entry{Result: resJSON}, nil); err != nil {
		log.Printf("serve: durable store put %s: %v", hash, err)
	}
}

// execute runs the simulation under the guard supervisor, advancing the
// job's visible step counter every CheckEvery steps. On a drain
// cancellation it flushes a terminal event to attached streams, then
// checkpoints the consistent post-cancel state and persists the resume
// manifest — event strictly before manifest, so no client learns of
// the restart promise before it is real from their stream's view.
func (s *Scheduler) execute(ctx context.Context, j *Job, spec JobSpec, resume string, rec *telemetry.Recorder) (*Result, error) {
	cfg, err := spec.mdConfig(rec)
	if err != nil {
		return nil, err
	}
	pol := guard.Policy{CheckEvery: s.opts.CheckEvery}
	if s.opts.StateDir != "" {
		pol.CheckpointPath = s.checkpointPath(j.id)
	}
	var sup *guard.Supervisor
	if resume != "" {
		sup, err = guard.Resume(resume, cfg, pol)
	} else {
		var sys *md.System
		if sys, err = spec.job().System(); err != nil {
			return nil, err
		}
		sup, err = guard.New(sys, cfg, pol)
	}
	if err != nil {
		return nil, err
	}
	defer sup.Close()

	for sup.StepCount() < spec.Steps {
		chunk := spec.Steps - sup.StepCount()
		if chunk > s.opts.CheckEvery {
			chunk = s.opts.CheckEvery
		}
		rerr := sup.RunCtx(ctx, chunk)
		s.setStep(j, sup.StepCount())
		if rerr != nil {
			if errors.Is(rerr, md.ErrCanceled) &&
				errors.Is(context.Cause(ctx), errDrain) && pol.CheckpointPath != "" {
				s.publishDrainInterrupt(j)
				if cerr := sup.Checkpoint(); cerr != nil {
					return nil, fmt.Errorf("serve: drain checkpoint: %w", cerr)
				}
				m := manifest{ID: j.id, Hash: j.hash, Spec: spec, Tenant: j.tenant,
					Step: sup.StepCount(), Checkpoint: pol.CheckpointPath}
				if merr := s.writeManifest(m); merr != nil {
					return nil, merr
				}
			}
			return nil, rerr
		}
	}
	sys := sup.System()
	return &Result{
		Steps:           sup.StepCount(),
		PotentialEnergy: sup.PotentialEnergy(),
		KineticEnergy:   sys.KineticEnergy(),
		TotalEnergy:     sup.TotalEnergy(),
		Temperature:     sys.Temperature(),
		Rollbacks:       sup.Retries(),
	}, nil
}

// publishDrainInterrupt flushes the terminal "interrupted" event to a
// running job's stream and closes the feed. The job's recorded state
// still reads running until runJob's terminal transition; the event
// carries the state the job is irrevocably headed for.
func (s *Scheduler) publishDrainInterrupt(j *Job) {
	s.mu.Lock()
	st := j.statusLocked()
	s.mu.Unlock()
	st.State = StateInterrupted
	st.Error = "interrupted by server drain; resumes on restart"
	if b, err := json.Marshal(st); err == nil {
		j.events.publish(EventStatus, b)
	}
	j.events.closeLog()
}

func (s *Scheduler) setStep(j *Job, step int) {
	s.mu.Lock()
	j.step = step
	id := j.id
	s.mu.Unlock()
	b, err := json.Marshal(struct {
		ID   string `json:"id"`
		Step int    `json:"step"`
	}{ID: id, Step: step})
	if err == nil {
		j.events.publish(EventProgress, b)
	}
}

// Drain stops admission, withdraws queued jobs into resume manifests
// (flushing a terminal event to any attached stream before each
// manifest is persisted), cancels running jobs with the drain cause
// (each flushes its own terminal event, checkpoints its consistent
// state and writes its manifest), and waits for the shards to finish.
// Safe to call more than once; later calls just wait.
func (s *Scheduler) Drain() error {
	s.mu.Lock()
	var firstErr error
	if !s.draining {
		s.draining = true
		// Withdraw queued jobs in ID order so manifest writes (and any
		// first error) are deterministic.
		for _, j := range s.order {
			if j.state != StateQueued {
				continue
			}
			j.skip = true
			j.state = StateInterrupted
			j.errMsg = "interrupted by server drain; resumes on restart"
			delete(s.byHash, j.hash)
			// Terminal event first, manifest second: a stream that saw
			// the event can rely on the resume record existing once the
			// drain completes.
			j.publishStatusLocked()
			if s.opts.StateDir != "" {
				m := manifest{ID: j.id, Hash: j.hash, Spec: j.spec, Tenant: j.tenant,
					Step: j.step, Checkpoint: j.resumeFrom}
				if err := s.writeManifest(m); err != nil && firstErr == nil {
					firstErr = err
				}
			}
		}
		s.pending = make(map[string][]*Job)
		s.queued = 0
		for _, ts := range s.tstates {
			ts.counters.Queued = 0
		}
		for _, j := range s.order {
			if j.state == StateRunning && j.cancel != nil {
				j.cancel(errDrain)
			}
		}
		s.cond.Broadcast()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return firstErr
}

// Store returns the durable result store, nil when not configured.
func (s *Scheduler) Store() *store.Store {
	return s.opts.Store
}

// Tenants returns the configured tenant registry (nil when tenancy is
// off).
func (s *Scheduler) Tenants() *TenantSet {
	return s.opts.Tenants
}

// Counters returns the lifetime totals.
func (s *Scheduler) Counters() Counters {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.counters
}

// TenantCounters snapshots every tenant's totals, keyed by name.
func (s *Scheduler) TenantCounters() map[string]TenantCounters {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]TenantCounters, len(s.tstates))
	for name, ts := range s.tstates {
		out[name] = ts.counters
	}
	return out
}

// noteStream tracks SSE stream lifecycle for /metrics.
func (s *Scheduler) noteStreamStart() {
	s.mu.Lock()
	s.counters.StreamsOpened++
	s.streamsActive++
	s.mu.Unlock()
}

func (s *Scheduler) noteStreamEnd() {
	s.mu.Lock()
	s.streamsActive--
	s.mu.Unlock()
}

// StreamsActive returns the number of currently attached SSE clients.
func (s *Scheduler) StreamsActive() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.streamsActive
}

// noteClientAbort records an HTTP write that failed because the peer
// went away; noteServerError records a response the server could not
// produce. Split on purpose: aborts are traffic weather, server errors
// are bugs.
func (s *Scheduler) noteClientAbort() {
	s.mu.Lock()
	s.counters.ClientAborts++
	s.mu.Unlock()
}

func (s *Scheduler) noteServerError() {
	s.mu.Lock()
	s.counters.ServerErrors++
	s.mu.Unlock()
}

// QueueDepth returns how many admitted jobs are waiting for a shard.
func (s *Scheduler) QueueDepth() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.queued
}

// durWindow is how many recent job durations feed the Retry-After
// estimate; maxRetryAfter caps the hint so a burst of long jobs never
// tells clients to go away for minutes.
const (
	durWindow     = 32
	maxRetryAfter = 60
)

// retryAfterHint converts queue pressure into a Retry-After hint in
// seconds: a rejected client is behind depth waiters plus itself, and
// maxJobs shards drain that backlog in parallel, so the expected wait
// is (depth+1)*mean/maxJobs. Clamped to [1, maxRetryAfter]; with no
// duration history the hint degrades to the old fixed 1 second.
func retryAfterHint(depth int, meanSeconds float64, maxJobs int) int {
	if maxJobs < 1 {
		maxJobs = 1
	}
	if meanSeconds <= 0 {
		return 1
	}
	hint := int(math.Ceil(float64(depth+1) * meanSeconds / float64(maxJobs)))
	if hint < 1 {
		hint = 1
	}
	if hint > maxRetryAfter {
		hint = maxRetryAfter
	}
	return hint
}

// meanDurLocked is the mean of the recent executed-job durations (0
// with no history); the mutex must be held.
func (s *Scheduler) meanDurLocked() float64 {
	n := s.durCount
	if n > durWindow {
		n = durWindow
	}
	if n == 0 {
		return 0
	}
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += s.recentDurs[i]
	}
	return sum / float64(n)
}

// RetryAfterSeconds is the backpressure hint for global queue-full 429
// responses, from the current queue depth and the mean of the recent
// executed-job durations. Tenant-quota 429s do NOT use this: their
// hints are quota-scoped (see QuotaError).
func (s *Scheduler) RetryAfterSeconds() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return retryAfterHint(s.queued, s.meanDurLocked(), s.opts.MaxJobs)
}

// Running returns how many jobs are currently executing.
func (s *Scheduler) Running() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.running
}

// Metrics aggregates the per-job telemetry recorders into one snapshot:
// phase timers, color sweeps, worker busy/wait and structural counters
// summed across every job this process has run. Jobs are visited in ID
// order so the float sums (and therefore the /metrics body) are
// bit-for-bit identical across calls and runs. The mutex is held only
// to copy the recorder pointers; the merge runs outside it.
func (s *Scheduler) Metrics() telemetry.Metrics {
	s.mu.Lock()
	recs := make([]*telemetry.Recorder, 0, len(s.order))
	for _, j := range s.order {
		if j.rec != nil {
			recs = append(recs, j.rec)
		}
	}
	s.mu.Unlock()
	agg := telemetry.Metrics{UptimeSeconds: time.Since(s.start).Seconds()}
	for _, r := range recs {
		agg = mergeMetrics(agg, r.Snapshot())
	}
	return agg
}

// mergeMetrics sums b into a (phases, colors, workers and counters);
// the uptime keeps a's value — the service's own clock.
func mergeMetrics(a, b telemetry.Metrics) telemetry.Metrics {
	a.Density.Seconds += b.Density.Seconds
	a.Density.Calls += b.Density.Calls
	a.Embed.Seconds += b.Embed.Seconds
	a.Embed.Calls += b.Embed.Calls
	a.Force.Seconds += b.Force.Seconds
	a.Force.Calls += b.Force.Calls
	a.Colors = mergeColors(a.Colors, b.Colors)
	a.Workers = mergeWorkers(a.Workers, b.Workers)
	a.Rebuilds += b.Rebuilds
	a.Faults += b.Faults
	a.Rollbacks += b.Rollbacks
	a.Checkpoints += b.Checkpoints
	return a
}

func mergeColors(a, b []telemetry.ColorStat) []telemetry.ColorStat {
	byColor := make(map[int]telemetry.ColorStat, len(a)+len(b))
	for _, c := range append(append([]telemetry.ColorStat(nil), a...), b...) {
		acc := byColor[c.Color]
		acc.Color = c.Color
		acc.Seconds += c.Seconds
		acc.Sweeps += c.Sweeps
		byColor[c.Color] = acc
	}
	out := make([]telemetry.ColorStat, 0, len(byColor))
	for _, c := range byColor {
		out = append(out, c)
	}
	sort.Slice(out, func(i, k int) bool { return out[i].Color < out[k].Color })
	return out
}

func mergeWorkers(a, b []telemetry.WorkerStat) []telemetry.WorkerStat {
	byWorker := make(map[int]telemetry.WorkerStat, len(a)+len(b))
	for _, w := range append(append([]telemetry.WorkerStat(nil), a...), b...) {
		acc := byWorker[w.Worker]
		acc.Worker = w.Worker
		acc.BusySeconds += w.BusySeconds
		acc.WaitSeconds += w.WaitSeconds
		byWorker[w.Worker] = acc
	}
	out := make([]telemetry.WorkerStat, 0, len(byWorker))
	for _, w := range byWorker {
		if tot := w.BusySeconds + w.WaitSeconds; tot > 0 {
			w.Utilization = w.BusySeconds / tot
		}
		out = append(out, w)
	}
	sort.Slice(out, func(i, k int) bool { return out[i].Worker < out[k].Worker })
	return out
}
