package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sdcmd/internal/store"
	"sdcmd/internal/xyz"
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

	// The stored entry also carries the final-state checkpoint as an
	// artifact, decodable and at the job's final step.
	norm, err := spec.normalized(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	h, err := norm.hash()
	if err != nil {
		t.Fatal(err)
	}
	ck, ok := st2.Artifact(h, "checkpoint")
	if !ok {
		t.Fatal("stored entry has no checkpoint artifact")
	}
	snap, err := xyz.ReadCheckpoint(bytes.NewReader(ck))
	if err != nil {
		t.Fatalf("stored checkpoint undecodable: %v", err)
	}
	if snap.Step != spec.Steps {
		t.Errorf("stored checkpoint at step %d, want %d", snap.Step, spec.Steps)
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

// TestDegradedStoreKeepsServing drives the whole stack over HTTP with a
// disk that dies after startup: jobs still complete, results are served
// from memory, and /healthz, /store and /metrics all report the
// degradation.
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

	var catalog struct {
		Degraded bool `json:"degraded"`
		Count    int  `json:"count"`
	}
	getInto(t, base+"/store", &catalog)
	if !catalog.Degraded || catalog.Count != 1 {
		t.Fatalf("GET /store %+v, want degraded with the memory-held result listed", catalog)
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

// TestStoreEndpointFilters exercises the catalog query parameters end
// to end, plus the 404 when no store is configured.
func TestStoreEndpointFilters(t *testing.T) {
	st := store.Open(store.Options{Dir: t.TempDir()})
	base, sched := startTestServer(t, Options{MaxJobs: 1, CPU: 2, Store: st})
	sub, _ := postJob(t, base, smallSpec(31, 20))
	waitSchedDone(t, sched, sub.ID)

	var got struct {
		Count   int `json:"count"`
		Entries []struct {
			Key  string     `json:"key"`
			Meta store.Meta `json:"meta"`
		} `json:"entries"`
	}
	getInto(t, base+"/store?material=eam-fs&cells=3&min_steps=20", &got)
	if got.Count != 1 || len(got.Entries) != 1 {
		t.Fatalf("filtered catalog %+v, want the one run", got)
	}
	if m := got.Entries[0].Meta; m.Material != "eam-fs" || m.Cells != 3 || m.Steps != 20 {
		t.Errorf("catalog meta %+v", m)
	}
	getInto(t, base+"/store?material=eam-johnson", &got)
	if got.Count != 0 {
		t.Errorf("mismatched filter returned %d entries", got.Count)
	}
	resp, err := http.Get(base + "/store?cells=abc")
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad cells= filter: HTTP %d, want 400", resp.StatusCode)
	}

	noStore, _ := startTestServer(t, Options{MaxJobs: 1, CPU: 1})
	resp, err = http.Get(noStore + "/store")
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /store without a store: HTTP %d, want 404", resp.StatusCode)
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
