package serve

import (
	"encoding/json"
	"net/http"
	"reflect"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"sdcmd/internal/store"
	"sdcmd/internal/telemetry"
)

// TestRetiredJobsStayBounded runs 2 000 submissions through one
// scheduler, one in fifty a fresh 54-atom job and the rest cache hits,
// with the retention window cut to zero so that every Submit retires
// each finished job. The scheduler must keep at most two jobs at any
// point, and live heap after GC must grow by less than maxBytesPerJob
// per job between submission 500 and 2 000; a scheduler that kept
// every job grows by about 1 KB per cache hit.
//
// Two jobs then run on the two shards with the window held open, so
// they may finish out of ID order, and a last Submit retires them.
// Before and after it, Metrics must equal, bit for bit, the retired
// jobs' recorders folded in retirement order followed by the retained
// jobs' recorders in ID order, on every call.
func TestRetiredJobsStayBounded(t *testing.T) {
	const (
		submissions    = 2000
		freshEvery     = 50
		maxBytesPerJob = 256
	)
	sched, err := NewScheduler(Options{MaxJobs: 2, CPU: 2, CheckEvery: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := sched.Drain(); err != nil {
			t.Errorf("drain: %v", err)
		}
	}()
	setRetain := func(d time.Duration) {
		sched.mu.Lock()
		sched.retain = d
		sched.mu.Unlock()
	}
	// retired is the fold of the retired jobs' recorders in retirement
	// order. No job runs when the test submits, so, with the window at
	// zero, finished read just before a Submit lists what it retires.
	var retired telemetry.Metrics
	submit := func(sp JobSpec) (Status, SubmitCode) {
		t.Helper()
		sched.mu.Lock()
		for _, f := range sched.finished {
			if f.job.rec != nil {
				retired = mergeMetrics(retired, f.job.rec.Snapshot())
			}
		}
		sched.mu.Unlock()
		st, code, err := sched.Submit(sp)
		if err != nil {
			t.Fatalf("submit %+v: code %v err %v", sp, code, err)
		}
		return st, code
	}
	checkMetrics := func(when string) {
		t.Helper()
		want := retired
		sched.mu.Lock()
		for _, j := range sched.order {
			if j.rec != nil {
				want = mergeMetrics(want, j.rec.Snapshot())
			}
		}
		sched.mu.Unlock()
		for call := range 2 {
			got := sched.Metrics()
			got.UptimeSeconds = 0
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s, call %d: Metrics %+v, want the retired fold then the retained jobs %+v", when, call, got, want)
			}
		}
	}

	setRetain(0)
	var specs []JobSpec
	var heapAt500 uint64
	for i := range submissions {
		var sp JobSpec
		if i%freshEvery == 0 {
			sp = smallSpec(int64(100+i), 5)
			specs = append(specs, sp)
		} else {
			sp = specs[i%len(specs)]
		}
		st, code := submit(sp)
		if code == SubmitCreated {
			waitSchedDone(t, sched, st.ID)
		} else if code != SubmitCacheHit {
			t.Fatalf("submission %d: code %v, want a fresh run or a cache hit", i, code)
		}
		sched.mu.Lock()
		jobs, order, finished := len(sched.jobs), len(sched.order), len(sched.finished)
		sched.mu.Unlock()
		if jobs > 2 || order != jobs || finished > jobs {
			t.Fatalf("submission %d: %d jobs, %d in order, %d finished; want at most 2, all in order", i, jobs, order, finished)
		}
		if i == 500 {
			heapAt500 = liveHeap()
		}
	}
	grew := int64(liveHeap()) - int64(heapAt500)
	t.Logf("live heap grew %d B over %d jobs", grew, submissions-500)
	if grew > maxBytesPerJob*(submissions-500) {
		t.Errorf("live heap grew %d B over %d jobs, want < %d B per job", grew, submissions-500, maxBytesPerJob)
	}
	if retired.Density.Calls == 0 {
		t.Fatal("no retired job had run MD")
	}

	setRetain(time.Hour)
	for _, sp := range []JobSpec{smallSpec(1, 400), smallSpec(2, 5)} {
		if _, code := submit(sp); code != SubmitCreated {
			t.Fatalf("submit %+v: code %v, want a fresh run", sp, code)
		}
	}
	sched.mu.Lock()
	ids := make([]string, 0, len(sched.order))
	for _, j := range sched.order {
		ids = append(ids, j.id)
	}
	sched.mu.Unlock()
	for _, id := range ids {
		waitSchedDone(t, sched, id)
	}
	checkMetrics("three jobs retained")
	setRetain(0)
	if _, code := submit(specs[0]); code != SubmitCacheHit {
		t.Fatalf("last submission: code %v, want a cache hit", code)
	}
	checkMetrics("after retiring them")
}

// TestRetirementUnderConcurrentClients retires jobs with a 1 ms window
// while four clients submit, poll and scrape Metrics at once, so that
// under -race the retirement paths run against Submit, the shards'
// terminal transitions and the lookups. Each client submits ten specs
// five times over: the first run of a spec is fresh and the rest are
// cache hits. The force-call count Metrics reports must never fall, as
// it would if a retiring job's recorder were dropped, and once the
// clients stop, one Submit past the window must leave its own job alone
// in the scheduler.
func TestRetirementUnderConcurrentClients(t *testing.T) {
	const clients, perClient = 4, 50
	sched, err := NewScheduler(Options{MaxJobs: 2, CPU: 2, Queue: clients, CheckEvery: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := sched.Drain(); err != nil {
			t.Errorf("drain: %v", err)
		}
	}()
	sched.mu.Lock()
	sched.retain = time.Millisecond
	sched.mu.Unlock()
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var calls int64
			for i := range perClient {
				st, _, err := sched.Submit(smallSpec(int64(1+10*c+i%10), 5))
				if err != nil {
					t.Errorf("client %d: submit: %v", c, err)
					return
				}
				for {
					cur, ok := sched.Get(st.ID)
					if !ok || terminal(cur.State) {
						break
					}
					time.Sleep(time.Millisecond)
				}
				m := sched.Metrics()
				if m.Force.Calls < calls {
					t.Errorf("client %d: Metrics force calls fell from %d to %d", c, calls, m.Force.Calls)
					return
				}
				calls = m.Force.Calls
			}
		}()
	}
	wg.Wait()
	time.Sleep(2 * time.Millisecond)
	if _, code, err := sched.Submit(smallSpec(1, 5)); code != SubmitCacheHit {
		t.Fatalf("last submission: code %v err %v, want a cache hit", code, err)
	}
	sched.mu.Lock()
	jobs, order, finished := len(sched.jobs), len(sched.order), len(sched.finished)
	sched.mu.Unlock()
	if jobs != 1 || order != 1 || finished != 1 {
		t.Errorf("%d jobs, %d in order, %d finished after the window; want the last submission's alone", jobs, order, finished)
	}
	if c := sched.Counters(); c.Completed != 10*clients || c.CacheHits != (perClient-10)*clients+1 || c.Failed != 0 {
		t.Errorf("counters %+v, want %d runs and %d cache hits", c, 10*clients, (perClient-10)*clients+1)
	}
}

// liveHeap returns the heap in use after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestResultCacheEvictsOldestFirst fills the result cache past its
// capacity: it keeps the resultCacheCap newest results, and a result
// stored again keeps its place.
func TestResultCacheEvictsOldestFirst(t *testing.T) {
	s := newBareScheduler(Options{})
	for i := range resultCacheCap + 10 {
		s.cachePutLocked("h"+strconv.Itoa(i), Result{Steps: i})
		s.cachePutLocked("h10", Result{Steps: 10})
	}
	if len(s.cache) != resultCacheCap {
		t.Fatalf("cache holds %d results, want %d", len(s.cache), resultCacheCap)
	}
	for i := range resultCacheCap + 10 {
		_, ok := s.cache["h"+strconv.Itoa(i)]
		if want := i >= 10; ok != want {
			t.Errorf("result h%d cached %v, want %v", i, ok, want)
		}
	}
}

// TestExpiredJobAnswers404 lets a finished job's window pass, then
// resubmits its spec: that Submit retires the job, so every route under
// its ID answers 404, and the resubmission is a cache hit with the
// original result's bits. With a store the hit comes from the store
// once the memory cache has evicted the result; without one, from the
// memory cache.
func TestExpiredJobAnswers404(t *testing.T) {
	for _, c := range []struct {
		name  string
		store bool
	}{{"store", true}, {"memory-only", false}} {
		t.Run(c.name, func(t *testing.T) {
			opts := Options{MaxJobs: 1, CPU: 1, CheckEvery: 10}
			if c.store {
				opts.Store = store.Open(store.Options{Dir: t.TempDir()})
			}
			base, sched := startTestServer(t, opts)
			const window = 50 * time.Millisecond
			sched.mu.Lock()
			sched.retain = window
			sched.mu.Unlock()

			spec := smallSpec(31, 20)
			first, _ := postJob(t, base, spec)
			waitState(t, base, first.ID, StateDone)
			var orig Result
			getInto(t, base+"/jobs/"+first.ID+"/result", &orig)
			if c.store {
				// Fill the memory cache with other results so that only
				// the store holds this one.
				sched.mu.Lock()
				for i := range resultCacheCap {
					sched.cachePutLocked("filler"+strconv.Itoa(i), Result{})
				}
				sched.mu.Unlock()
			}
			time.Sleep(window + 10*time.Millisecond)

			again, resp := postJob(t, base, spec)
			if resp.StatusCode != http.StatusOK || again.State != StateDone {
				t.Fatalf("resubmission: HTTP %d state %q, want a cache hit", resp.StatusCode, again.State)
			}
			for _, r := range []struct{ method, path string }{
				{http.MethodGet, "/jobs/" + first.ID},
				{http.MethodGet, "/jobs/" + first.ID + "/result"},
				{http.MethodGet, "/jobs/" + first.ID + "/events"},
				{http.MethodDelete, "/jobs/" + first.ID},
			} {
				resp, err := http.DefaultClient.Do(mustReq(t, r.method, base+r.path))
				if err != nil {
					t.Fatal(err)
				}
				var body map[string]string
				_ = json.NewDecoder(resp.Body).Decode(&body)
				_ = resp.Body.Close()
				if resp.StatusCode != http.StatusNotFound || body["error"] != "no such job" {
					t.Errorf("%s %s after the window: HTTP %d %v, want 404 no such job", r.method, r.path, resp.StatusCode, body)
				}
			}

			var res Result
			getInto(t, base+"/jobs/"+again.ID+"/result", &res)
			want := orig
			want.Cached, want.WallSeconds = true, 0
			if res != want {
				t.Errorf("resubmitted result %+v, want the original's bits %+v", res, want)
			}
			storeHits := 0
			if c.store {
				storeHits = 1
			}
			if got := sched.Counters(); got.Completed != 1 || got.CacheHits != 1 || got.StoreHits != storeHits {
				t.Errorf("counters %+v, want one run, one cache hit and %d store hits", got, storeHits)
			}
		})
	}
}
