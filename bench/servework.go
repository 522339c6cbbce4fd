package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"sdcmd/internal/md"
	"sdcmd/internal/serve"
	"sdcmd/internal/store"
)

const (
	// jobCells and jobSteps size every serve-mixed job (1024 atoms).
	jobCells = 8
	jobSteps = 60
	// serveClients is the closed loop's client count; serveShards the
	// scheduler's. Each client waits for its result before submitting
	// again, so at most serveClients jobs are in flight.
	serveClients = 2
	serveShards  = 2
	// repeatEvery: of every repeatEvery submissions of a client, one
	// resubmits a spec the client already completed (a cache hit) and
	// the rest are fresh seeds.
	repeatEvery = 5
	// probeJobs is the job count of the service probe that traced MD
	// runs make.
	probeJobs = 6
	// energyTol is the service-vs-direct-md gate, relative.
	energyTol = 1e-6
	// serveSetupRepeats is setupRepeats for the service: a start takes
	// milliseconds, so it repeats more to steady the median.
	serveSetupRepeats = 31
	// storeSamples bounds the store calls timed by a traced run.
	storeSamples = 20
	// httpTimeout caps any one request, streams included.
	httpTimeout = 60 * time.Second
)

// service is one in-process sdcserve stack: durable store, scheduler
// and HTTP server on a loopback port.
type service struct {
	store *store.Store
	sched *serve.Scheduler
	srv   *serve.Server
	base  string
	tr    *http.Transport
	http  *http.Client
}

// startService brings the stack up over the store in dir and waits
// until it answers /healthz.
func startService(dir string) (*service, error) {
	st := store.Open(store.Options{Dir: dir})
	sched, err := serve.NewScheduler(serve.Options{MaxJobs: serveShards, Store: st})
	if err != nil {
		return nil, err
	}
	srv, err := serve.Start("127.0.0.1:0", sched)
	if err != nil {
		_ = sched.Drain()
		return nil, err
	}
	tr := &http.Transport{MaxConnsPerHost: serveClients, MaxIdleConnsPerHost: serveClients}
	s := &service{store: st, sched: sched, srv: srv, base: "http://" + srv.Addr(),
		tr: tr, http: &http.Client{Transport: tr, Timeout: httpTimeout}}
	resp, err := s.http.Get(s.base + "/healthz")
	if err == nil {
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz: status %d", resp.StatusCode)
		}
	}
	if err != nil {
		_ = s.stop()
		return nil, err
	}
	return s, nil
}

// stop drains the scheduler and closes the server.
func (s *service) stop() error {
	derr := s.sched.Drain()
	cerr := s.srv.Close()
	s.tr.CloseIdleConnections()
	if derr != nil {
		return derr
	}
	return cerr
}

// storeDir makes a fresh store directory under workDir.
func storeDir(workDir string) (string, error) {
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(workDir, "store-")
}

// removeStore deletes a temporary store directory.
func removeStore(dir string, log io.Writer) {
	if err := os.RemoveAll(dir); err != nil {
		logf(log, "bench: %v\n", err)
	}
}

// setupService starts the stack repeats times, each over a fresh store
// directory under workDir, and keeps the last start running; setup_s is
// the median start, timed from store open to the first answered
// request. It returns the running service and its store directory.
func setupService(rep *report, workDir string, repeats int, log io.Writer, tr *tracer) (*service, string, error) {
	times := make([]float64, 0, repeats)
	for i := 0; ; i++ {
		dir, err := storeDir(workDir)
		if err != nil {
			return nil, "", err
		}
		start := time.Now()
		svc, err := startService(dir)
		if err != nil {
			removeStore(dir, log)
			return nil, "", fmt.Errorf("service start: %w", err)
		}
		end := time.Now()
		tr.record("serve.setup", start, end, -1, 0, trackSetup)
		times = append(times, end.Sub(start).Seconds())
		if i == repeats-1 {
			rep.metrics["setup_s"] = median(times)
			return svc, dir, nil
		}
		err = svc.stop()
		removeStore(dir, log)
		if err != nil {
			return nil, "", err
		}
	}
}

// jobSample is one submission as its client saw it.
type jobSample struct {
	fresh bool
	spec  serve.JobSpec
	hash  string
	res   serve.Result
	// orig is the fresh result a repeat must reproduce.
	orig                                serve.Result
	submitMs, queueMs, runMs, latencyMs float64
	err                                 error
}

// loopResult is the closed loop's outcome.
type loopResult struct {
	samples    []jobSample
	start, end time.Time
}

// closedLoop runs serveClients clients until the deadline (or, with a
// job budget, until each client has made its share of the budget).
func (s *service) closedLoop(seed int64, seconds float64, budget int, tr *tracer) loopResult {
	var wg sync.WaitGroup
	perClient := make([][]jobSample, serveClients)
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	for c := 0; c < serveClients; c++ {
		quota := 0
		if budget > 0 {
			quota = budget / serveClients
			if c < budget%serveClients {
				quota++
			}
		}
		cl := &client{svc: s, id: c, rng: rand.New(rand.NewSource(seed*serveClients + int64(c))),
			seedBase: seed*1_000_000 + int64(c)*100_000, tr: tr}
		wg.Add(1)
		//lint:ignore pool-only-go closed-loop clients are the benchmark's simulated users, not force-loop parallelism; wg.Wait below joins them
		go func(c int) {
			defer wg.Done()
			perClient[c] = cl.loop(deadline, quota)
		}(c)
	}
	wg.Wait()
	res := loopResult{start: start, end: time.Now()}
	for _, ss := range perClient {
		res.samples = append(res.samples, ss...)
	}
	return res
}

// client is one closed-loop user of the service.
type client struct {
	svc      *service
	id       int
	rng      *rand.Rand
	seedBase int64
	fresh    int
	done     []jobSample
	tr       *tracer
}

func (cl *client) loop(deadline time.Time, quota int) []jobSample {
	var out []jobSample
	for k := 0; ; k++ {
		if quota > 0 && k >= quota || quota == 0 && !time.Now().Before(deadline) {
			return out
		}
		s := jobSample{fresh: true}
		if k%repeatEvery == 2 && len(cl.done) > 0 {
			o := cl.done[cl.rng.Intn(len(cl.done))]
			s.fresh, s.spec, s.orig = false, o.spec, o.res
		} else {
			cl.fresh++
			s.spec = serve.JobSpec{Cells: jobCells, Steps: jobSteps, Strategy: "sdc", Seed: cl.seedBase + int64(cl.fresh)}
		}
		cl.run(&s, int64(cl.id)<<32|int64(k))
		if s.err == nil && s.fresh {
			cl.done = append(cl.done, s)
		}
		out = append(out, s)
	}
}

// run makes one submission: POST, follow the job's event stream to its
// terminal status (fresh jobs only; a cache hit is done on submit), then
// fetch the result.
func (cl *client) run(s *jobSample, trace int64) {
	track := trackClient + cl.id
	t0 := time.Now()
	st, err := cl.submit(s.spec)
	t1 := time.Now()
	s.submitMs = ms(t1.Sub(t0))
	if err != nil {
		s.err = err
		return
	}
	s.hash = st.Hash
	running, done := t1, t1
	if st.State != serve.StateDone {
		running, done, err = cl.await(st.ID)
		if err != nil {
			s.err = err
			return
		}
	}
	s.queueMs, s.runMs = ms(running.Sub(t1)), ms(done.Sub(running))
	s.res, err = cl.result(st.ID)
	t2 := time.Now()
	s.latencyMs = ms(t2.Sub(t0))
	if err != nil {
		s.err = err
		return
	}
	job := cl.tr.record("serve.job", t0, t2, -1, trace, track)
	cl.tr.record("serve.submit", t0, t1, job, trace, track)
	if s.fresh {
		cl.tr.record("serve.queue_wait", t1, running, job, trace, track)
		cl.tr.record("serve.run", running, done, job, trace, track)
	}
	cl.tr.record("serve.result", done, t2, job, trace, track)
}

func (cl *client) submit(spec serve.JobSpec) (serve.Status, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return serve.Status{}, err
	}
	resp, err := cl.svc.http.Post(cl.svc.base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return serve.Status{}, err
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		return serve.Status{}, fmt.Errorf("submit: status %d: %s", resp.StatusCode, strings.TrimSpace(string(msg)))
	}
	var st serve.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return serve.Status{}, fmt.Errorf("submit: %w", err)
	}
	return st, nil
}

// await follows GET /jobs/{id}/events and returns when the running and
// done status events arrived.
func (cl *client) await(id string) (running, done time.Time, err error) {
	resp, err := cl.svc.http.Get(cl.svc.base + "/jobs/" + id + "/events")
	if err != nil {
		return running, done, err
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusOK {
		return running, done, fmt.Errorf("events: status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		if v, ok := strings.CutPrefix(line, "event: "); ok {
			event = v
			continue
		}
		v, ok := strings.CutPrefix(line, "data: ")
		if !ok || event != serve.EventStatus {
			continue
		}
		var st serve.Status
		if err := json.Unmarshal([]byte(v), &st); err != nil {
			return running, done, fmt.Errorf("events: %w", err)
		}
		now := time.Now()
		switch st.State {
		case serve.StateRunning:
			running = now
		case serve.StateDone:
			if running.IsZero() {
				running = now
			}
			return running, now, nil
		case serve.StateFailed, serve.StateCanceled, serve.StateInterrupted:
			return running, done, fmt.Errorf("job %s ended %s: %s", id, st.State, st.Error)
		}
	}
	if err := sc.Err(); err != nil {
		return running, done, fmt.Errorf("events: %w", err)
	}
	return running, done, fmt.Errorf("events: stream for %s ended before a terminal status", id)
}

// drain reads a response to its end before closing it, so the client
// reuses the connection instead of dialing a new one; an event stream
// ends by itself once the job's log closes after its terminal status.
func drain(resp *http.Response) {
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
}

func (cl *client) result(id string) (serve.Result, error) {
	resp, err := cl.svc.http.Get(cl.svc.base + "/jobs/" + id + "/result")
	if err != nil {
		return serve.Result{}, err
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusOK {
		return serve.Result{}, fmt.Errorf("result: status %d", resp.StatusCode)
	}
	var res serve.Result
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		return serve.Result{}, fmt.Errorf("result: %w", err)
	}
	return res, nil
}

// jobCase is the MD run behind every serve-mixed job, as the scheduler
// configures it: SDC at one thread (the spec's default, which the
// per-shard clamp can only lower), no reorder.
func jobCase() mdCase {
	c := mdCaseFor("", scale{cells: jobCells, steps: jobSteps})
	c.reorder, c.threads = false, 1
	return c
}

// checkResults applies the service's correctness gates and returns the
// fresh spec sampled for the direct-md comparison.
func checkResults(rep *report, res loopResult, seed int64, log io.Writer) (serve.JobSpec, error) {
	var fresh []jobSample
	failed, badFresh, badRepeat, repeats := 0, 0, 0, 0
	for _, s := range res.samples {
		rep.attempted++
		switch {
		case s.err != nil:
			failed++
			logf(log, "serve: submission failed: %v\n", s.err)
		case s.fresh:
			fresh = append(fresh, s)
			if s.res.Steps != jobSteps || s.res.Cached || !finite(s.res.TotalEnergy, s.res.PotentialEnergy, s.res.KineticEnergy) {
				badFresh++
			}
		default:
			repeats++
			if !s.res.Cached || !sameResult(s.res, s.orig) {
				badRepeat++
			}
		}
	}
	rep.failed += failed
	rep.check("submissions-succeed", failed == 0, "%d of %d submissions failed", failed, len(res.samples))
	rep.check("fresh-results-valid", badFresh == 0 && len(fresh) > 0,
		"%d of %d fresh results lack %d steps or finite energies", badFresh, len(fresh), jobSteps)
	rep.check("repeats-bit-identical", badRepeat == 0 && repeats > 0,
		"%d of %d cache hits differ from their original", badRepeat, repeats)
	if len(fresh) == 0 {
		return serve.JobSpec{}, fmt.Errorf("no fresh job completed")
	}
	s := fresh[rand.New(rand.NewSource(seed)).Intn(len(fresh))]
	e, err := directEnergy(s.spec.Seed)
	if err != nil {
		return serve.JobSpec{}, err
	}
	rel := math.Abs(s.res.TotalEnergy-e) / math.Abs(e)
	rep.check("energy-matches-direct-md", rel <= energyTol,
		"job seed %d: service E %.10g eV, direct md E %.10g eV, rel diff %.3g", s.spec.Seed, s.res.TotalEnergy, e, rel)
	return s.spec, nil
}

// directEnergy runs one job's MD directly through internal/md and
// returns its final total energy.
func directEnergy(jobSeed int64) (float64, error) {
	c := jobCase()
	sys, _, err := c.system(jobSeed)
	if err != nil {
		return 0, err
	}
	sim, err := md.NewSimulator(sys, c.config(nil, nil))
	if err != nil {
		return 0, err
	}
	defer sim.Close()
	if err := sim.Step(jobSteps); err != nil {
		return 0, err
	}
	return sim.TotalEnergy(), nil
}

func finite(xs ...float64) bool {
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// sameResult compares the physics of two results bit for bit.
func sameResult(a, b serve.Result) bool {
	eq := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	return a.Steps == b.Steps && eq(a.PotentialEnergy, b.PotentialEnergy) &&
		eq(a.KineticEnergy, b.KineticEnergy) && eq(a.TotalEnergy, b.TotalEnergy) &&
		eq(a.Temperature, b.Temperature)
}

// runServeWorkload is serve-mixed.
func runServeWorkload(rc runConfig, tr *tracer) (*report, error) {
	rep := newReport()
	repeats := serveSetupRepeats
	if rc.trace {
		repeats = 1
	}
	svc, dir, err := setupService(rep, rc.workDir, repeats, rc.log, tr)
	if err != nil {
		return nil, err
	}
	defer removeStore(dir, rc.log)
	res := svc.closedLoop(rc.seed, rc.seconds, rc.scale.jobs, tr)
	if rc.trace {
		serviceLayers(rep, svc, res, tr)
	}
	if err := svc.stop(); err != nil {
		return nil, fmt.Errorf("service stop: %w", err)
	}
	sampled, err := checkResults(rep, res, rc.seed, rc.log)
	if err != nil {
		return nil, err
	}
	var fresh []float64
	completed := 0
	for _, s := range res.samples {
		if s.err == nil {
			completed++
			if s.fresh {
				fresh = append(fresh, s.latencyMs)
			}
		}
	}
	rep.metrics["ms_per_op"] = ms(res.end.Sub(res.start)) / float64(completed)
	rep.metrics["op_ms_p50"] = percentile(fresh, 0.50)
	logf(rc.log, "serve: %d submissions (%d fresh) in %.2fs\n", len(res.samples), len(fresh), res.end.Sub(res.start).Seconds())
	if !rc.trace {
		return rep, nil
	}
	// The MD layers of one job: the sampled spec, run directly with the
	// same layer measurements as the 54k workloads.
	c := jobCase()
	r, err := setupMD(newReport(), c, sampled.Seed, 1, tr)
	if err != nil {
		return nil, err
	}
	defer r.sim.Close()
	e0, err := r.warmAndGate(rep, tr)
	if err != nil {
		return nil, err
	}
	return rep, r.layers(rep, rc, e0, tr)
}

// serveProbe measures the service and store layers with a short job
// run, for traced MD workloads.
func serveProbe(rep *report, rc runConfig, tr *tracer) error {
	dir, err := storeDir(rc.workDir)
	if err != nil {
		return err
	}
	defer removeStore(dir, rc.log)
	svc, err := startService(dir)
	if err != nil {
		return fmt.Errorf("service probe: %w", err)
	}
	res := svc.closedLoop(rc.seed, 0, probeJobs, tr)
	serviceLayers(rep, svc, res, tr)
	if err := svc.stop(); err != nil {
		return fmt.Errorf("service probe stop: %w", err)
	}
	_, err = checkResults(rep, res, rc.seed, rc.log)
	return err
}

// serviceLayers derives the serve and store per-layer metrics. The
// store calls are timed directly on entries the run committed: a Get,
// then a Put of the same entry and artifact back under its key.
func serviceLayers(rep *report, svc *service, res loopResult, tr *tracer) {
	var latency, submit, queue, run, overhead, hit []float64
	var hashes []string
	for _, s := range res.samples {
		if s.err != nil {
			continue
		}
		submit = append(submit, s.submitMs)
		if !s.fresh {
			hit = append(hit, s.latencyMs)
			continue
		}
		latency = append(latency, s.latencyMs)
		queue = append(queue, s.queueMs)
		run = append(run, s.runMs)
		overhead = append(overhead, s.latencyMs-1e3*s.res.WallSeconds)
		if len(hashes) < storeSamples {
			hashes = append(hashes, s.hash)
		}
	}
	rep.metrics["serve.job_ms_p90"] = percentile(latency, 0.90)
	rep.metrics["serve.submit_ms_p50"] = median(submit)
	rep.metrics["serve.queue_wait_ms_p50"] = median(queue)
	rep.metrics["serve.queue_wait_ms_p90"] = percentile(queue, 0.90)
	rep.metrics["serve.run_ms_p50"] = median(run)
	rep.metrics["serve.overhead_ms_p50"] = median(overhead)
	rep.metrics["serve.hit_ms_p50"] = median(hit)
	rep.metrics["serve.cache_hits"] = float64(svc.sched.Counters().CacheHits)

	var gets, puts []float64
	failed := 0
	for i, h := range hashes {
		var (
			e   store.Entry
			ok  bool
			err error
		)
		gets = append(gets, ms(tr.timed("store.get", -1, int64(i), trackStore, func() { e, ok = svc.store.Get(h) })))
		if !ok {
			failed++
			continue
		}
		arts := map[string][]byte{}
		if b, ok := svc.store.Artifact(h, "checkpoint"); ok {
			arts["checkpoint"] = b
		}
		puts = append(puts, ms(tr.timed("store.put", -1, int64(i), trackStore, func() { err = svc.store.Put(h, e, arts) })))
		if err != nil {
			failed++
		}
	}
	rep.check("store-roundtrip", failed == 0 && len(hashes) > 0, "%d of %d store get/put failed", failed, len(hashes))
	st := svc.store.Stats()
	rep.metrics["store.get_ms_p50"] = median(gets)
	rep.metrics["store.put_ms_p50"] = median(puts)
	rep.metrics["store.entry_bytes"] = float64(st.Bytes) / float64(st.Entries)
}
