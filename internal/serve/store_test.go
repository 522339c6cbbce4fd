package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sdcmd/internal/store"
)

// waitSchedDone polls the scheduler until id completes and returns its
// result.
func waitSchedDone(t *testing.T, sched *Scheduler, id string) Result {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		res, st, ok := sched.Result(id)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		switch st.State {
		case StateDone:
			return res
		case StateFailed, StateCanceled, StateInterrupted:
			t.Fatalf("job %s reached %q (error: %s)", id, st.State, st.Error)
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never finished", id)
	return Result{}
}

// TestRolledBackResultIsNotCached runs a spec whose timestep is too
// large for the crystal under default options and a durable store: the
// supervisor rolls back and halves dt, and the job completes with its
// rollback count. That run is not the one the spec describes, so
// neither the cache nor the store keeps it, and a resubmission runs
// again.
func TestRolledBackResultIsNotCached(t *testing.T) {
	st := store.Open(store.Options{Dir: t.TempDir()})
	sched, err := NewScheduler(Options{Store: st})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := sched.Drain(); err != nil {
			t.Errorf("drain: %v", err)
		}
	}()
	spec := JobSpec{Cells: 4, Steps: 100, Temperature: 300, Dt: 0.03}
	for run := 1; run <= 2; run++ {
		sub, code, err := sched.Submit(spec)
		if err != nil || code != SubmitCreated {
			t.Fatalf("submission %d: code %v err %v, want a fresh run", run, code, err)
		}
		res := waitSchedDone(t, sched, sub.ID)
		if res.Rollbacks == 0 || res.Cached || res.Steps != spec.Steps {
			t.Fatalf("submission %d: result %+v, want %d steps after a rollback", run, res, spec.Steps)
		}
	}
	if s := st.Stats(); s.Puts != 0 {
		t.Errorf("store took %d puts of a rolled-back result", s.Puts)
	}
	clean, err := json.Marshal(Result{Steps: 1})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(clean), "rollbacks") {
		t.Errorf("a clean result encodes a rollback count: %s", clean)
	}
}

// TestStoreCacheHitSurvivesRestart is the cross-restart acceptance
// test: a result computed by one scheduler process is served
// bit-for-bit identical by a second scheduler over the same store
// directory, without re-running the simulation.
func TestStoreCacheHitSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	spec := smallSpec(11, 40)

	st1 := store.Open(store.Options{Dir: dir})
	sched1, err := NewScheduler(Options{MaxJobs: 1, CPU: 2, Store: st1})
	if err != nil {
		t.Fatal(err)
	}
	sub, code, err := sched1.Submit(spec)
	if err != nil || code != SubmitCreated {
		t.Fatalf("submit: code %v err %v", code, err)
	}
	first := waitSchedDone(t, sched1, sub.ID)
	if err := sched1.Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if s := st1.Stats(); s.Puts != 1 || s.Degraded {
		t.Fatalf("after first run: puts %d degraded %v, want 1 put on a healthy store", s.Puts, s.Degraded)
	}

	// "Restart": fresh store handle, fresh scheduler, same directory.
	st2 := store.Open(store.Options{Dir: dir})
	sched2, err := NewScheduler(Options{MaxJobs: 1, CPU: 2, Store: st2})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := sched2.Drain(); err != nil {
			t.Errorf("drain: %v", err)
		}
	}()
	sub2, code, err := sched2.Submit(spec)
	if err != nil || code != SubmitCacheHit {
		t.Fatalf("restart submit: code %v err %v, want cache hit from the durable store", code, err)
	}
	if c := sched2.Counters(); c.StoreHits != 1 {
		t.Fatalf("store hits %d, want 1", c.StoreHits)
	}
	second, stat, ok := sched2.Result(sub2.ID)
	if !ok || stat.State != StateDone {
		t.Fatalf("cache-hit job not done: ok %v state %q", ok, stat.State)
	}
	if !second.Cached {
		t.Error("restart result not marked cached")
	}
	// Bit-for-bit: every float survives the JSON round trip exactly
	// (Go encodes float64 shortest-form, which is lossless).
	want := first
	want.Cached = true
	want.WallSeconds = 0
	if second != want {
		t.Fatalf("restart result differs:\n got %+v\nwant %+v", second, want)
	}

	// The stored entry holds the result only: no final-state checkpoint
	// is written beside it.
	if _, ok := st2.Artifact(sub.Hash, "checkpoint"); ok {
		t.Error("stored entry carries a checkpoint artifact")
	}
}

// TestCorruptManifestQuarantinedNotFatal: a torn drain manifest (and a
// leftover atomic-write temp) in the state dir must not stop startup —
// the manifest is renamed aside, the temp swept, healthy work resumes.
// A well-formed manifest naming a strategy this build no longer has
// ("tasked", written by an older process) must not stop startup either:
// that job resumes and fails with the unknown-strategy error.
func TestCorruptManifestQuarantinedNotFatal(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "j000000.json")
	if err := os.WriteFile(bad, []byte("{torn mid-wri"), 0o644); err != nil {
		t.Fatal(err)
	}
	tmp := filepath.Join(dir, "j000001.json.tmp-999-1")
	if err := os.WriteFile(tmp, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	healthy, err := smallSpec(41, 10).normalized(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	healthyHash, err := healthy.hash()
	if err != nil {
		t.Fatal(err)
	}
	removed := healthy
	removed.Strategy = "tasked"
	removed.Seed = 42
	for _, m := range []manifest{
		{ID: "j000002", Hash: "removed-strategy", Spec: removed},
		{ID: "j000003", Hash: healthyHash, Spec: healthy},
	} {
		b, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, m.ID+".json"), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	sched, err := NewScheduler(Options{MaxJobs: 1, CPU: 1, StateDir: dir})
	if err != nil {
		t.Fatalf("corrupt manifest failed startup: %v", err)
	}
	defer func() {
		if err := sched.Drain(); err != nil {
			t.Errorf("drain: %v", err)
		}
	}()
	if c := sched.Counters(); c.BadManifests != 1 || c.Resumed != 2 {
		t.Fatalf("counters %+v, want 1 bad manifest, 2 resumed", c)
	}
	// The manifest's hash is not a key: the job is keyed by its spec.
	removedHash, err := removed.hash()
	if err != nil {
		t.Fatal(err)
	}
	if st, _ := sched.Get("j000002"); st.Hash != removedHash {
		t.Errorf("resumed job keyed %q, want its spec's key %s", st.Hash, removedHash)
	}
	waitSchedDone(t, sched, "j000003")
	deadline := time.Now().Add(60 * time.Second)
	for {
		_, st, ok := sched.Result("j000002")
		if !ok {
			t.Fatal("removed-strategy job vanished")
		}
		if st.State == StateFailed {
			if !strings.Contains(st.Error, `unknown kind "tasked"`) || !strings.Contains(st.Error, "sdc") {
				t.Errorf("removed-strategy job error %q, want the unknown-kind error listing the kinds", st.Error)
			}
			break
		}
		if st.State == StateDone || time.Now().After(deadline) {
			t.Fatalf("removed-strategy job in state %q, want %q", st.State, StateFailed)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if _, err := os.Stat(bad); !os.IsNotExist(err) {
		t.Error("corrupt manifest still in scan position")
	}
	if _, err := os.Stat(bad + ".corrupt"); err != nil {
		t.Errorf("quarantined manifest missing: %v", err)
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Error("leftover temp not swept at startup")
	}
}

// writeManifests writes each manifest into dir under the given file
// name.
func writeManifests(t *testing.T, dir string, files map[string]manifest) {
	t.Helper()
	for file, m := range files {
		b, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, file), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// assertQuarantinedOnly checks that a scheduler started over manifests
// that all name foreign files resumed none of them, quarantined each,
// and left the file outside the state directory as it was.
func assertQuarantinedOnly(t *testing.T, dir string, files map[string]manifest, outside, content string) {
	t.Helper()
	sched, err := NewScheduler(Options{MaxJobs: 1, CPU: 1, StateDir: dir})
	if err != nil {
		t.Fatalf("startup: %v", err)
	}
	c := sched.Counters()
	if err := sched.Drain(); err != nil {
		t.Errorf("drain: %v", err)
	}
	if c.BadManifests != len(files) || c.Resumed != 0 {
		t.Errorf("counters %+v, want %d bad manifests, none resumed", c, len(files))
	}
	for file := range files {
		if _, err := os.Stat(filepath.Join(dir, file+".corrupt")); err != nil {
			t.Errorf("manifest %s not quarantined: %v", file, err)
		}
	}
	if b, err := os.ReadFile(outside); err != nil || string(b) != content {
		t.Errorf("file outside the state dir: %q, %v; want %q untouched", b, err, content)
	}
}

// TestManifestForeignIDQuarantined: a manifest whose id is not its own
// file name in j%06d form is quarantined, not resumed. The id picks the
// files the resumed run writes and removes: trusted, "../victim" would
// remove <state-dir>/../victim.json when its job completed.
func TestManifestForeignIDQuarantined(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "state")
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	victim := filepath.Join(root, "victim.json")
	if err := os.WriteFile(victim, []byte("keep"), 0o644); err != nil {
		t.Fatal(err)
	}
	spec, err := smallSpec(61, 5).normalized(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string]manifest{
		"j000000.json": {ID: "../victim", Spec: spec},
		"j000001.json": {ID: "j000002", Spec: spec},
		"j3.json":      {ID: "j3", Spec: spec},
		"j-00004.json": {ID: "j-00004", Spec: spec},
	}
	writeManifests(t, dir, files)
	assertQuarantinedOnly(t, dir, files, victim, "keep")
}

// TestManifestForeignCheckpointQuarantined: a manifest whose checkpoint
// is neither empty nor <state-dir>/<id>.sdck is quarantined, so a
// restart reads no checkpoint the scheduler did not write for that job.
func TestManifestForeignCheckpointQuarantined(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "state")
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	outside := filepath.Join(root, "outside.sdck")
	if err := os.WriteFile(outside, []byte("keep"), 0o644); err != nil {
		t.Fatal(err)
	}
	spec, err := smallSpec(62, 5).normalized(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string]manifest{
		"j000000.json": {ID: "j000000", Spec: spec, Step: 3, Checkpoint: outside},
		"j000001.json": {ID: "j000001", Spec: spec, Step: 3, Checkpoint: filepath.Join(dir, "j000002.sdck")},
	}
	writeManifests(t, dir, files)
	assertQuarantinedOnly(t, dir, files, outside, "keep")
}

// TestResumedJobKeyedBySpecHash: a manifest whose hash names another
// spec's key must not put its result under that key. The resumed job
// is keyed by the spec it runs, so its own spec becomes a cache hit and
// the other spec stays a miss.
func TestResumedJobKeyedBySpecHash(t *testing.T) {
	dir := t.TempDir()
	ran, err := smallSpec(63, 10).normalized(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	other, err := smallSpec(64, 10).normalized(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	ranHash, err := ran.hash()
	if err != nil {
		t.Fatal(err)
	}
	otherHash, err := other.hash()
	if err != nil {
		t.Fatal(err)
	}
	writeManifests(t, dir, map[string]manifest{"j000000.json": {ID: "j000000", Hash: otherHash, Spec: ran}})
	sched, err := NewScheduler(Options{MaxJobs: 1, CPU: 1, StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := sched.Drain(); err != nil {
			t.Errorf("drain: %v", err)
		}
	}()
	waitSchedDone(t, sched, "j000000")
	if st, _ := sched.Get("j000000"); st.Hash != ranHash {
		t.Errorf("resumed job keyed %q, want its spec's key %s", st.Hash, ranHash)
	}
	if _, code, err := sched.Submit(other); err != nil || code == SubmitCacheHit {
		t.Errorf("other spec: code %v err %v; a cache hit serves the resumed job's result", code, err)
	}
	if _, code, err := sched.Submit(ran); err != nil || code != SubmitCacheHit {
		t.Errorf("resumed spec: code %v err %v, want a cache hit", code, err)
	}
}

// TestDegradedStoreKeepsServing drives the whole stack over HTTP with a
// disk that dies after startup: jobs still complete, results are served
// from memory, and /healthz and /metrics both report the degradation.
func TestDegradedStoreKeepsServing(t *testing.T) {
	ffs := store.NewFaultFS(nil)
	st := store.Open(store.Options{
		Dir:          t.TempDir(),
		FS:           ffs,
		RetryBackoff: time.Microsecond,
	})
	base, _ := startTestServer(t, Options{MaxJobs: 1, CPU: 2, Store: st})

	ffs.FailEverything(nil)
	sub, resp := postJob(t, base, smallSpec(21, 30))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit with dead disk: HTTP %d", resp.StatusCode)
	}
	waitState(t, base, sub.ID, StateDone)

	var health struct {
		Status string `json:"status"`
		Store  string `json:"store"`
	}
	getInto(t, base+"/healthz", &health)
	if health.Status != "ok" || health.Store != "degraded" {
		t.Fatalf("healthz %+v, want status ok with store degraded", health)
	}

	resp2, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp2.Body)
	_ = resp2.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"sdcserve_store_degraded 1",
		"sdcserve_store_put_errors_total 1",
		"sdcserve_store_entries 1",
		"sdcserve_store_mem_entries 1",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// An identical resubmission is a cache hit — memory-only mode still
	// deduplicates work.
	_, resp3 := postJob(t, base, smallSpec(21, 30))
	if resp3.StatusCode != http.StatusOK {
		t.Errorf("resubmit under degraded store: HTTP %d, want 200 cache hit", resp3.StatusCode)
	}
}

func getInto(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("decode %s: %v", url, err)
	}
}
