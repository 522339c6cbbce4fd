package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"sdcmd/internal/guard"
	"sdcmd/internal/telemetry"
)

// startTestServer stands up a scheduler + HTTP server on a loopback
// port and tears both down at test end.
func startTestServer(t *testing.T, opts Options) (string, *Scheduler) {
	t.Helper()
	sched, err := NewScheduler(opts)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := Start("127.0.0.1:0", sched)
	if err != nil {
		_ = sched.Drain()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := srv.Close(); err != nil {
			t.Errorf("server close: %v", err)
		}
		if err := sched.Drain(); err != nil {
			t.Errorf("drain: %v", err)
		}
	})
	return "http://" + srv.Addr(), sched
}

func postJob(t *testing.T, base string, spec JobSpec) (Status, *http.Response) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	var st Status
	if resp.StatusCode == http.StatusCreated || resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatalf("decode submit response: %v", err)
		}
	}
	return st, resp
}

func getStatus(t *testing.T, base, id string) Status {
	t.Helper()
	resp, err := http.Get(base + "/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /jobs/%s: status %d", id, resp.StatusCode)
	}
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// waitState polls until the job reaches want (or any terminal state).
func waitState(t *testing.T, base, id, want string) Status {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		st := getStatus(t, base, id)
		if st.State == want {
			return st
		}
		switch st.State {
		case StateDone, StateFailed, StateCanceled, StateInterrupted:
			t.Fatalf("job %s reached terminal state %q waiting for %q (error: %s)",
				id, st.State, want, st.Error)
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never reached state %q", id, want)
	return Status{}
}

// smallSpec is a fast job: 3 bcc cells = 54 atoms, the smallest box
// that fits the EAM cutoff + skin under minimum image.
func smallSpec(seed int64, steps int) JobSpec {
	return JobSpec{Cells: 3, Steps: steps, Seed: seed}
}

func TestNormalizeDefaultsAndClamp(t *testing.T) {
	sp, err := JobSpec{Steps: 10, Threads: 64, Strategy: "sdc"}.normalized(8, 4)
	if err != nil {
		t.Fatal(err)
	}
	if sp.Threads != 2 {
		t.Errorf("threads clamped to %d, want 2 (8 CPUs / 4 shards)", sp.Threads)
	}
	if sp.Potential != "eam-fs" || sp.Cells != 8 || sp.Dim != 2 || sp.Dt != 1e-3 {
		t.Errorf("defaults not applied: %+v", sp)
	}
	for _, bad := range []JobSpec{
		{},                              // steps missing
		{Steps: 10, Strategy: "magic"},  // unknown strategy
		{Steps: 10, Dim: 4},             // dim out of range
		{Steps: 10, Potential: "lj"},    // unsupported potential
		{Steps: 10, Cells: -1},          // bad lattice
		{Steps: 1, Cells: 1 << 20},      // lattice too large to allocate
		{Steps: 1, Cells: maxCells + 1}, // past the paper's largest case
		{Steps: 10, Skin: -0.1},         // negative skin
		{Steps: 10, Thermostat: 300, ThermostatTau: -0.01}, // negative thermostat time constant
	} {
		if _, err := bad.normalized(4, 2); err == nil {
			t.Errorf("spec %+v accepted", bad)
		}
	}
	if _, err := (JobSpec{Steps: 1, Cells: maxCells}).normalized(4, 2); err != nil {
		t.Errorf("the paper's largest case was rejected: %v", err)
	}
}

func TestHashIsStableAndSpecSensitive(t *testing.T) {
	a, err := JobSpec{Steps: 10}.normalized(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := JobSpec{Steps: 10, Cells: 8, Seed: 1, Strategy: "serial"}.normalized(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	ha, err := a.hash()
	if err != nil {
		t.Fatal(err)
	}
	hb, err := b.hash()
	if err != nil {
		t.Fatal(err)
	}
	if ha != hb {
		t.Error("explicit defaults hash differently from implied defaults")
	}
	c, err := JobSpec{Steps: 11}.normalized(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	hc, err := c.hash()
	if err != nil {
		t.Fatal(err)
	}
	if hc == ha {
		t.Error("different steps, same hash")
	}
}

func TestSubmitRunResult(t *testing.T) {
	base, _ := startTestServer(t, Options{MaxJobs: 2, Queue: 8, CheckEvery: 10})
	st, resp := postJob(t, base, smallSpec(1, 40))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit status %d, want 201", resp.StatusCode)
	}
	if st.ID == "" || st.Hash == "" {
		t.Fatalf("bad status: %+v", st)
	}
	fin := waitState(t, base, st.ID, StateDone)
	if fin.Step != 40 {
		t.Errorf("final step %d, want 40", fin.Step)
	}
	r, err := http.Get(base + "/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = r.Body.Close() }()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("result status %d", r.StatusCode)
	}
	var res Result
	if err := json.NewDecoder(r.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	if res.Steps != 40 || res.Cached || res.TotalEnergy >= 0 {
		t.Errorf("suspicious result: %+v", res)
	}
	if res.WallSeconds <= 0 {
		t.Errorf("wall seconds %g, want > 0", res.WallSeconds)
	}
}

func TestResultBeforeDoneConflicts(t *testing.T) {
	base, _ := startTestServer(t, Options{MaxJobs: 1, Queue: 4, CheckEvery: 10})
	st, _ := postJob(t, base, smallSpec(7, 500_000))
	r, err := http.Get(base + "/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = r.Body.Close() }()
	if r.StatusCode != http.StatusConflict {
		t.Errorf("result of unfinished job: status %d, want 409", r.StatusCode)
	}
	if _, err := http.DefaultClient.Do(mustReq(t, http.MethodDelete, base+"/jobs/"+st.ID)); err != nil {
		t.Fatal(err)
	}
}

func mustReq(t *testing.T, method, url string) *http.Request {
	t.Helper()
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	return req
}

// TestCacheHitDedup: a second identical submission after completion is
// served from the content-addressed cache without re-running.
func TestCacheHitDedup(t *testing.T) {
	base, sched := startTestServer(t, Options{MaxJobs: 2, Queue: 8, CheckEvery: 10})
	first, resp := postJob(t, base, smallSpec(3, 30))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("first submit: %d", resp.StatusCode)
	}
	waitState(t, base, first.ID, StateDone)
	completedBefore := sched.Counters().Completed

	second, resp := postJob(t, base, smallSpec(3, 30))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("resubmit status %d, want 200 (cache hit)", resp.StatusCode)
	}
	if second.ID == first.ID {
		t.Error("cache hit reused the original job id instead of materializing a new job")
	}
	if second.State != StateDone {
		t.Fatalf("cache-hit job state %q, want done immediately", second.State)
	}
	if second.Hash != first.Hash {
		t.Errorf("hash mismatch: %s vs %s", second.Hash, first.Hash)
	}
	r, err := http.Get(base + "/jobs/" + second.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = r.Body.Close() }()
	var res Result
	if err := json.NewDecoder(r.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	if !res.Cached {
		t.Error("resubmitted result not marked cached")
	}
	c := sched.Counters()
	if c.CacheHits != 1 {
		t.Errorf("cache hits %d, want 1", c.CacheHits)
	}
	if c.Completed != completedBefore {
		t.Errorf("cache hit re-ran the job: completed %d -> %d", completedBefore, c.Completed)
	}
}

// TestSingleflightCoalesce: identical specs submitted while the first
// is still in flight share one job.
func TestSingleflightCoalesce(t *testing.T) {
	base, sched := startTestServer(t, Options{MaxJobs: 1, Queue: 4, CheckEvery: 10})
	first, _ := postJob(t, base, smallSpec(9, 500_000))
	second, resp := postJob(t, base, smallSpec(9, 500_000))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("coalesced submit status %d, want 200", resp.StatusCode)
	}
	if second.ID != first.ID {
		t.Errorf("identical in-flight spec got new job %s, want %s", second.ID, first.ID)
	}
	if c := sched.Counters(); c.Coalesced != 1 {
		t.Errorf("coalesced counter %d, want 1", c.Coalesced)
	}
	if _, err := http.DefaultClient.Do(mustReq(t, http.MethodDelete, base+"/jobs/"+first.ID)); err != nil {
		t.Fatal(err)
	}
}

// TestQueueFullBackpressure: with one shard busy and the queue full,
// the next submission gets 429 plus a Retry-After hint.
func TestQueueFullBackpressure(t *testing.T) {
	base, sched := startTestServer(t, Options{MaxJobs: 1, Queue: 1, CheckEvery: 10})
	running, _ := postJob(t, base, smallSpec(1, 500_000))
	waitState(t, base, running.ID, StateRunning)
	queued, resp := postJob(t, base, smallSpec(2, 500_000))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("second submit status %d, want 201 (queued)", resp.StatusCode)
	}
	_, resp = postJob(t, base, smallSpec(3, 500_000))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third submit status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("429 without Retry-After header")
	} else if n, err := strconv.Atoi(ra); err != nil || n < 1 {
		t.Errorf("Retry-After %q is not a positive integer", ra)
	}
	if c := sched.Counters(); c.Rejected != 1 {
		t.Errorf("rejected counter %d, want 1", c.Rejected)
	}
	for _, id := range []string{running.ID, queued.ID} {
		if _, err := http.DefaultClient.Do(mustReq(t, http.MethodDelete, base+"/jobs/"+id)); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRetryAfterScalesWithQueueDepth pins the backpressure-hint fix: a
// previous revision hard-coded Retry-After: 1, so clients stuck behind
// a deep queue of multi-second jobs burned retries. The hint must grow
// with queue depth and mean job duration, clamp to at least 1 second,
// and cap so it never tells clients to go away for minutes.
func TestRetryAfterScalesWithQueueDepth(t *testing.T) {
	if got := retryAfterHint(5, 0, 2); got != 1 {
		t.Errorf("no duration history: hint %d, want the legacy 1", got)
	}
	shallow := retryAfterHint(1, 3.0, 2)
	deep := retryAfterHint(10, 3.0, 2)
	if deep <= shallow {
		t.Errorf("deeper queue did not raise the hint: depth 1 -> %d, depth 10 -> %d", shallow, deep)
	}
	if got := retryAfterHint(2, 3.0, 1); got != 9 {
		t.Errorf("hint(depth=2, mean=3s, shards=1) = %d, want ceil(3*3/1) = 9", got)
	}
	if got := retryAfterHint(2, 3.0, 3); got != 3 {
		t.Errorf("more shards must shrink the wait: got %d, want 3", got)
	}
	if got := retryAfterHint(0, 0.01, 4); got != 1 {
		t.Errorf("sub-second wait: hint %d, want clamp to 1", got)
	}
	if got := retryAfterHint(1_000_000, 100, 1); got != maxRetryAfter {
		t.Errorf("pathological backlog: hint %d, want cap %d", got, maxRetryAfter)
	}

	// Scheduler-level: recorded durations feed the estimate.
	sched, err := NewScheduler(Options{MaxJobs: 1, Queue: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := sched.Drain(); err != nil {
			t.Errorf("drain: %v", err)
		}
	}()
	if got := sched.RetryAfterSeconds(); got != 1 {
		t.Errorf("fresh scheduler hint %d, want 1", got)
	}
	sched.mu.Lock()
	for i := 0; i < durWindow+5; i++ { // overfill: the ring must not double-count
		sched.recentDurs[sched.durCount%durWindow] = 8.0
		sched.durCount++
	}
	sched.mu.Unlock()
	// Empty queue, mean 8 s, 1 shard: the next slot frees in one mean
	// job time.
	if got := sched.RetryAfterSeconds(); got != 8 {
		t.Errorf("hint with mean 8s and empty queue = %d, want 8", got)
	}
}

// TestDeleteStopsRunningJob: DELETE on an in-flight job cancels it and
// the step counter stops advancing.
func TestDeleteStopsRunningJob(t *testing.T) {
	base, _ := startTestServer(t, Options{MaxJobs: 1, Queue: 2, CheckEvery: 10})
	st, _ := postJob(t, base, smallSpec(5, 10_000_000))
	waitState(t, base, st.ID, StateRunning)
	// Let it advance at least one visible chunk first.
	deadline := time.Now().Add(30 * time.Second)
	for getStatus(t, base, st.ID).Step == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	resp, err := http.DefaultClient.Do(mustReq(t, http.MethodDelete, base+"/jobs/"+st.ID))
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE status %d", resp.StatusCode)
	}
	var fin Status
	for time.Now().Before(deadline) {
		fin = getStatus(t, base, st.ID)
		if fin.State == StateCanceled {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if fin.State != StateCanceled {
		t.Fatalf("job state %q after DELETE, want canceled", fin.State)
	}
	if fin.Step <= 0 || fin.Step >= 10_000_000 {
		t.Errorf("canceled at step %d, want a partial run", fin.Step)
	}
	// The counter must not advance once canceled.
	time.Sleep(50 * time.Millisecond)
	if again := getStatus(t, base, st.ID); again.Step != fin.Step {
		t.Errorf("step counter advanced after cancel: %d -> %d", fin.Step, again.Step)
	}
	// Canceled jobs have no result.
	r, err := http.Get(base + "/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = r.Body.Close() }()
	if r.StatusCode != http.StatusConflict {
		t.Errorf("result of canceled job: status %d, want 409", r.StatusCode)
	}
}

// TestConcurrentSubmitPollCancel hammers the API from many goroutines
// under -race: distinct jobs submitted, polled and half of them
// canceled mid-flight.
func TestConcurrentSubmitPollCancel(t *testing.T) {
	base, _ := startTestServer(t, Options{MaxJobs: 2, Queue: 32, CheckEvery: 5})
	const clients = 8
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			wantCancel := i%2 == 1
			cancelPending := wantCancel
			steps := 60
			if wantCancel {
				steps = 10_000_000
			}
			st, resp := postJob(t, base, smallSpec(int64(100+i), steps))
			if resp.StatusCode != http.StatusCreated {
				errs <- fmt.Errorf("client %d: submit status %d", i, resp.StatusCode)
				return
			}
			deadline := time.Now().Add(30 * time.Second)
			for time.Now().Before(deadline) {
				cur := getStatus(t, base, st.ID)
				switch cur.State {
				case StateDone:
					if wantCancel {
						errs <- fmt.Errorf("client %d: cancel-target finished", i)
					}
					return
				case StateCanceled:
					if !wantCancel {
						errs <- fmt.Errorf("client %d: spuriously canceled", i)
					}
					return
				case StateFailed:
					errs <- fmt.Errorf("client %d: failed: %s", i, cur.Error)
					return
				case StateRunning:
					if cancelPending {
						resp, err := http.DefaultClient.Do(mustReq(t, http.MethodDelete, base+"/jobs/"+st.ID))
						if err != nil {
							errs <- err
							return
						}
						_ = resp.Body.Close()
						cancelPending = false // only once; keep polling for the state
					}
				}
				time.Sleep(time.Millisecond)
			}
			errs <- fmt.Errorf("client %d: job %s never finished", i, st.ID)
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestMetricsAggregation: /metrics sums per-job telemetry and appends
// the service counters, in both exposition formats.
func TestMetricsAggregation(t *testing.T) {
	base, _ := startTestServer(t, Options{MaxJobs: 2, Queue: 8, CheckEvery: 10})
	st, _ := postJob(t, base, smallSpec(21, 30))
	waitState(t, base, st.ID, StateDone)

	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		"sdcmd_phase_seconds_total{phase=\"force\"}",
		"sdcserve_jobs_submitted_total 1",
		"sdcserve_jobs_completed_total 1",
		"sdcserve_queue_depth 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q:\n%.600s", want, text)
		}
	}

	resp, err = http.Get(base + "/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	var agg struct {
		Jobs Counters          `json:"jobs"`
		Sim  telemetry.Metrics `json:"sim"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&agg); err != nil {
		t.Fatal(err)
	}
	if agg.Jobs.Submitted != 1 || agg.Jobs.Completed != 1 {
		t.Errorf("JSON counters: %+v", agg.Jobs)
	}
	if agg.Sim.Force.Calls == 0 {
		t.Error("aggregated metrics show no force phase calls")
	}
}

func TestMergeMetrics(t *testing.T) {
	a := telemetry.Metrics{
		Density: telemetry.PhaseStat{Seconds: 1, Calls: 2},
		Colors:  []telemetry.ColorStat{{Color: 0, Seconds: 1, Sweeps: 1}},
		Workers: []telemetry.WorkerStat{{Worker: 0, BusySeconds: 3, WaitSeconds: 1}},
	}
	b := telemetry.Metrics{
		Density:  telemetry.PhaseStat{Seconds: 2, Calls: 3},
		Colors:   []telemetry.ColorStat{{Color: 0, Seconds: 2, Sweeps: 1}, {Color: 1, Seconds: 5, Sweeps: 2}},
		Workers:  []telemetry.WorkerStat{{Worker: 0, BusySeconds: 1, WaitSeconds: 3}},
		Rebuilds: 4,
	}
	m := mergeMetrics(a, b)
	if m.Density.Seconds != 3 || m.Density.Calls != 5 || m.Rebuilds != 4 {
		t.Errorf("merged scalars: %+v", m)
	}
	if len(m.Colors) != 2 || m.Colors[0].Seconds != 3 || m.Colors[1].Color != 1 {
		t.Errorf("merged colors: %+v", m.Colors)
	}
	if len(m.Workers) != 1 || m.Workers[0].BusySeconds != 4 || m.Workers[0].Utilization != 0.5 {
		t.Errorf("merged workers: %+v", m.Workers)
	}
}

// TestDrainCheckpointRestartBitForBit is the acceptance test for the
// graceful drain: a SIGTERM-style Drain checkpoints the in-flight job,
// a new scheduler over the same state directory resumes and finishes
// it, and the final state is bit-for-bit identical to a direct
// guard.Resume control run from a copy of the very same drain
// checkpoint — serve's persistence layer adds no divergence over the
// guard resume path.
func TestDrainCheckpointRestartBitForBit(t *testing.T) {
	dir := t.TempDir()
	goroutinesBefore := runtime.NumGoroutine()
	const checkEvery = 10
	opts := Options{MaxJobs: 1, Queue: 4, CPU: 2, StateDir: dir, CheckEvery: checkEvery}
	sched, err := NewScheduler(opts)
	if err != nil {
		t.Fatal(err)
	}
	spec := JobSpec{Cells: 3, Steps: 20_000, Seed: 4, Strategy: "serial"}
	st, code, err := sched.Submit(spec)
	if err != nil || code != SubmitCreated {
		t.Fatalf("submit: code %v err %v", code, err)
	}
	// Let the job advance at least one visible chunk, then drain. The
	// generous deadline covers race-instrumented runs.
	deadline := time.Now().Add(120 * time.Second)
	for {
		cur, ok := sched.Get(st.ID)
		if !ok {
			t.Fatal("job vanished")
		}
		if cur.Step > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never advanced")
		}
		time.Sleep(time.Millisecond)
	}
	if err := sched.Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	// Drain must join every runner goroutine before a restart takes
	// over the state directory — leaked workers from the first
	// incarnation would race the second over the same files.
	settleToGoroutineCount(t, goroutinesBefore)
	cur, _ := sched.Get(st.ID)
	if cur.State != StateInterrupted {
		t.Fatalf("post-drain state %q, want interrupted", cur.State)
	}
	if cur.Step <= 0 || cur.Step >= spec.Steps {
		t.Fatalf("drain checkpoint at step %d, want a partial run", cur.Step)
	}

	// The drain must have left a manifest + checkpoint pair.
	ckpt := filepath.Join(dir, st.ID+".sdck")
	if _, err := os.Stat(filepath.Join(dir, st.ID+".json")); err != nil {
		t.Fatalf("drain manifest missing: %v", err)
	}
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("drain checkpoint missing: %v", err)
	}
	// Copy the checkpoint for the control run before the restarted
	// scheduler consumes (and afterwards deletes) the original.
	control := filepath.Join(dir, "control.sdck")
	b, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(control, b, 0o644); err != nil {
		t.Fatal(err)
	}

	// Restart: a fresh scheduler over the same state dir re-admits and
	// finishes the job.
	sched2, err := NewScheduler(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := sched2.Drain(); err != nil {
			t.Errorf("drain restarted scheduler: %v", err)
		}
		settleToGoroutineCount(t, goroutinesBefore)
	}()
	if c := sched2.Counters(); c.Resumed != 1 {
		t.Fatalf("restarted scheduler resumed %d jobs, want 1", c.Resumed)
	}
	var res Result
	for {
		got, stat, ok := sched2.Result(st.ID)
		if !ok {
			t.Fatal("resumed job vanished")
		}
		if stat.State == StateDone {
			res = got
			break
		}
		if stat.State == StateFailed {
			t.Fatalf("resumed job failed: %s", stat.Error)
		}
		if time.Now().After(deadline) {
			t.Fatal("resumed job never finished")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if res.Steps != spec.Steps {
		t.Fatalf("resumed job finished at step %d, want %d", res.Steps, spec.Steps)
	}

	// Control: resume the checkpoint copy directly through the guard
	// path with the same config and chunking, run to the same target.
	norm, err := spec.normalized(opts.CPU, opts.MaxJobs)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := norm.mdConfig(nil)
	if err != nil {
		t.Fatal(err)
	}
	sup, err := guard.Resume(control, cfg, guard.Policy{CheckEvery: checkEvery})
	if err != nil {
		t.Fatal(err)
	}
	defer sup.Close()
	if sup.StepCount() != cur.Step {
		t.Fatalf("control resumes at step %d, drain stopped at %d", sup.StepCount(), cur.Step)
	}
	if err := sup.Run(spec.Steps - sup.StepCount()); err != nil {
		t.Fatal(err)
	}
	// Exact float comparison on purpose: both runs are serial resumes
	// of the same checkpoint, so every summation order is identical and
	// any difference means the service layer perturbed the state.
	if pe := sup.PotentialEnergy(); pe != res.PotentialEnergy {
		t.Errorf("potential energy diverged: serve %v vs control %v", res.PotentialEnergy, pe)
	}
	if te := sup.TotalEnergy(); te != res.TotalEnergy {
		t.Errorf("total energy diverged: serve %v vs control %v", res.TotalEnergy, te)
	}
	if ke := sup.System().KineticEnergy(); ke != res.KineticEnergy {
		t.Errorf("kinetic energy diverged: serve %v vs control %v", res.KineticEnergy, ke)
	}

	// Completion must have cleaned up the persisted pair.
	if _, err := os.Stat(filepath.Join(dir, st.ID+".json")); !os.IsNotExist(err) {
		t.Errorf("manifest survived completion: %v", err)
	}
	if _, err := os.Stat(ckpt); !os.IsNotExist(err) {
		t.Errorf("checkpoint survived completion: %v", err)
	}
}

// TestDrainPersistsQueuedJobs: jobs that never started are persisted as
// spec-only manifests and restart from scratch.
func TestDrainPersistsQueuedJobs(t *testing.T) {
	dir := t.TempDir()
	opts := Options{MaxJobs: 1, Queue: 4, CPU: 2, StateDir: dir, CheckEvery: 10}
	sched, err := NewScheduler(opts)
	if err != nil {
		t.Fatal(err)
	}
	blocker, code, err := sched.Submit(JobSpec{Cells: 3, Steps: 10_000_000, Seed: 1})
	if err != nil || code != SubmitCreated {
		t.Fatalf("submit blocker: %v %v", code, err)
	}
	queued, code, err := sched.Submit(JobSpec{Cells: 3, Steps: 25, Seed: 2})
	if err != nil || code != SubmitCreated {
		t.Fatalf("submit queued: %v %v", code, err)
	}
	// Make sure the blocker occupies the only shard so the second job
	// is still queued at drain time.
	deadline := time.Now().Add(30 * time.Second)
	for {
		st, _ := sched.Get(blocker.ID)
		if st.State == StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("blocker never started")
		}
		time.Sleep(time.Millisecond)
	}
	if err := sched.Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	st, _ := sched.Get(queued.ID)
	if st.State != StateInterrupted {
		t.Fatalf("queued job state %q after drain, want interrupted", st.State)
	}

	sched2, err := NewScheduler(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := sched2.Drain(); err != nil {
			t.Errorf("drain: %v", err)
		}
	}()
	if c := sched2.Counters(); c.Resumed != 2 {
		t.Fatalf("resumed %d jobs, want 2 (blocker + queued)", c.Resumed)
	}
	// The blocker is huge and resumes onto the only shard first; cancel
	// it so the restarted queued job gets to run.
	if _, ok := sched2.Cancel(blocker.ID); !ok {
		t.Fatal("blocker not found after restart")
	}
	for {
		_, stat, ok := sched2.Result(queued.ID)
		if !ok {
			t.Fatal("queued job vanished after restart")
		}
		if stat.State == StateDone {
			if stat.Step != 25 {
				t.Errorf("restarted queued job finished at %d, want 25", stat.Step)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("restarted queued job never finished")
		}
		time.Sleep(2 * time.Millisecond)
	}
}
