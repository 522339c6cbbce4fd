package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTenantSetValidation(t *testing.T) {
	cases := []struct {
		name    string
		tenants []Tenant
	}{
		{"empty name", []Tenant{{Key: "k"}}},
		{"empty key", []Tenant{{Name: "a"}}},
		{"dup name", []Tenant{{Name: "a", Key: "k1"}, {Name: "a", Key: "k2"}}},
		{"dup key", []Tenant{{Name: "a", Key: "k"}, {Name: "b", Key: "k"}}},
		{"negative quota", []Tenant{{Name: "a", Key: "k", MaxQueued: -1}}},
	}
	for _, c := range cases {
		if _, err := NewTenantSet(c.tenants); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
	ts, err := NewTenantSet([]Tenant{{Name: "a", Key: "ka"}, {Name: "b", Key: "kb", Weight: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if got := ts.Lookup("ka"); got == nil || got.Name != "a" || got.Weight != 1 {
		t.Errorf("Lookup(ka) = %+v, want tenant a with defaulted weight 1", got)
	}
	if got := ts.ByName("b"); got == nil || got.Weight != 3 {
		t.Errorf("ByName(b) = %+v, want weight 3", got)
	}
	if got := ts.Names(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Errorf("Names() = %v, want [a b]", got)
	}
}

func TestLoadTenantsFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tenants.json")
	doc := `{"tenants":[
		{"name":"acme","key":"acme-key","weight":3,"max_queued":10},
		{"name":"beta","key":"beta-key","max_steps_per_sec":500}
	]}`
	if err := os.WriteFile(path, []byte(doc), 0o600); err != nil {
		t.Fatal(err)
	}
	ts, err := LoadTenants(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := ts.Lookup("acme-key"); got == nil || got.Weight != 3 || got.MaxQueued != 10 {
		t.Errorf("acme = %+v", got)
	}
	if got := ts.Lookup("beta-key"); got == nil || got.MaxStepsPerSec != 500 {
		t.Errorf("beta = %+v", got)
	}
	if _, err := LoadTenants(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	_ = os.WriteFile(bad, []byte("{"), 0o600)
	if _, err := LoadTenants(bad); err == nil {
		t.Error("malformed file accepted")
	}
}

// newBareScheduler builds a scheduler with no workers, for
// deterministic dispatch-order tests: nothing races nextJobLocked.
func newBareScheduler(opts Options) *Scheduler {
	s := &Scheduler{
		opts:    opts.withDefaults(),
		start:   time.Now(),
		jobs:    make(map[string]*Job),
		byHash:  make(map[string]*Job),
		cache:   make(map[string]Result),
		pending: make(map[string][]*Job),
		tstates: make(map[string]*tenantState),
	}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// TestFairShareDispatchPickOrder is the deterministic half of the
// fair-share contract: with two tenants at 3:1 weights and saturated
// queues, 24 consecutive dispatch picks split exactly 18:6.
func TestFairShareDispatchPickOrder(t *testing.T) {
	tenants, err := NewTenantSet([]Tenant{
		{Name: "gold", Key: "kg", Weight: 3},
		{Name: "bronze", Key: "kb", Weight: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	s := newBareScheduler(Options{Tenants: tenants})
	s.mu.Lock()
	for _, name := range []string{"gold", "bronze"} {
		s.tenantStateLocked(name)
		for i := 0; i < 24; i++ {
			j := s.newJobLocked(name, JobSpec{Steps: 1}, name+strconv.Itoa(i))
			j.state = StateQueued
			s.enqueueLocked(j)
		}
	}
	picks := map[string]int{}
	for i := 0; i < 24; i++ {
		j := s.nextJobLocked()
		if j == nil {
			t.Fatalf("pick %d: nothing dispatchable with both queues non-empty", i)
		}
		picks[j.tenant]++
	}
	s.mu.Unlock()
	if picks["gold"] != 18 || picks["bronze"] != 6 {
		t.Fatalf("24 picks split gold=%d bronze=%d, want 18:6", picks["gold"], picks["bronze"])
	}
}

// TestFairShareMaxRunningSkipsTenant: a tenant at its MaxRunning cap
// must not be picked even with the lowest pass; others proceed.
func TestFairShareMaxRunningSkipsTenant(t *testing.T) {
	tenants, err := NewTenantSet([]Tenant{
		{Name: "capped", Key: "kc", Weight: 8, MaxRunning: 1},
		{Name: "free", Key: "kf", Weight: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	s := newBareScheduler(Options{Tenants: tenants})
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, name := range []string{"capped", "free"} {
		s.tenantStateLocked(name)
		for i := 0; i < 4; i++ {
			j := s.newJobLocked(name, JobSpec{Steps: 1}, name+strconv.Itoa(i))
			j.state = StateQueued
			s.enqueueLocked(j)
		}
	}
	first := s.nextJobLocked()
	if first.tenant != "capped" {
		t.Fatalf("first pick %q, want capped (weight 8)", first.tenant)
	}
	s.tstates["capped"].counters.Running = 1 // at its cap now
	for i := 0; i < 3; i++ {
		j := s.nextJobLocked()
		if j.tenant != "free" {
			t.Fatalf("pick %d went to %q while capped is at MaxRunning, want free", i, j.tenant)
		}
	}
}

// TestFairShareEndToEndRatio is the live half: one shard, two tenants
// at 3:1 weights with both queues saturated; the completed-job split
// observed mid-run must be within 20% of 3:1. A third tenant's job
// holds the shard until every job is queued: a shard free during the
// submissions would run whichever tenant had a job queued, and the
// faster the jobs, the more of them would run before both queues fill.
func TestFairShareEndToEndRatio(t *testing.T) {
	tenants, err := NewTenantSet([]Tenant{
		{Name: "gold", Key: "kg", Weight: 3},
		{Name: "bronze", Key: "kb", Weight: 1},
		{Name: "hold", Key: "kh", Weight: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	sched, err := NewScheduler(Options{MaxJobs: 1, Queue: 96, CPU: 1, CheckEvery: 10, Tenants: tenants})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = sched.Drain() }()
	hold, _, err := sched.SubmitAs(tenants.ByName("hold"), JobSpec{Cells: 3, Steps: 1 << 30, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	waitJobState(t, sched, hold.ID, StateRunning)
	gold, bronze := tenants.ByName("gold"), tenants.ByName("bronze")
	for i := 0; i < 40; i++ {
		if _, code, err := sched.SubmitAs(gold, JobSpec{Cells: 3, Steps: 30, Seed: int64(1000 + i)}); err != nil || code != SubmitCreated {
			t.Fatalf("gold submit %d: code %v err %v", i, code, err)
		}
		if _, code, err := sched.SubmitAs(bronze, JobSpec{Cells: 3, Steps: 30, Seed: int64(2000 + i)}); err != nil || code != SubmitCreated {
			t.Fatalf("bronze submit %d: code %v err %v", i, code, err)
		}
	}
	if _, ok := sched.Cancel(hold.ID); !ok {
		t.Fatalf("cancel %s: job unknown", hold.ID)
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		tc := sched.TenantCounters()
		total := tc["gold"].Completed + tc["bronze"].Completed
		if total >= 20 {
			g, b := float64(tc["gold"].Completed), float64(tc["bronze"].Completed)
			if b == 0 {
				t.Fatalf("bronze completed nothing while gold completed %v", g)
			}
			ratio := g / b
			if ratio < 3*0.8 || ratio > 3*1.2 {
				t.Fatalf("completed ratio gold:bronze = %v:%v = %.2f, want within 20%% of 3.0", g, b, ratio)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("completions stalled: %+v", tc)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestQuotaRetryAfterIsQuotaScoped pins the satellite fix: a tenant
// over its steps/sec budget with an EMPTY global queue gets the
// bucket-refill hint, not the queue-depth formula (which would say 1).
func TestQuotaRetryAfterIsQuotaScoped(t *testing.T) {
	tenants, err := NewTenantSet([]Tenant{
		{Name: "metered", Key: "km", Weight: 1, MaxStepsPerSec: 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	base, sched := startTestServer(t, Options{MaxJobs: 1, Queue: 8, CPU: 1, CheckEvery: 10, Tenants: tenants})

	post := func(spec JobSpec) *http.Response {
		body, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		req, err := http.NewRequest(http.MethodPost, base+"/jobs", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-API-Key", "km")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = resp.Body.Close() })
		return resp
	}
	// First job admitted on the burst balance (20 tokens), driving the
	// bucket 80 steps negative; the second must wait ~8s for refill.
	if resp := post(JobSpec{Cells: 3, Steps: 100, Seed: 1}); resp.StatusCode != http.StatusCreated {
		t.Fatalf("first submit: status %d, want 201", resp.StatusCode)
	}
	resp := post(JobSpec{Cells: 3, Steps: 100, Seed: 2})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second submit: status %d, want 429", resp.StatusCode)
	}
	retry, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil {
		t.Fatalf("bad Retry-After %q: %v", resp.Header.Get("Retry-After"), err)
	}
	if retry < 7 || retry > 9 {
		t.Errorf("quota Retry-After %d, want ~8 (bucket 80 steps in debt at 10/s)", retry)
	}
	// The global queue is empty and the duration ring too, so the
	// queue-depth formula would have said 1 — proving the hint above
	// came from the quota, not the queue.
	if global := sched.RetryAfterSeconds(); global != 1 {
		t.Fatalf("global hint %d, want 1 (empty queue+ring); quota hint %d must differ", global, retry)
	}
	c := sched.Counters()
	if c.QuotaRejected != 1 {
		t.Errorf("QuotaRejected = %d, want 1", c.QuotaRejected)
	}
	tc := sched.TenantCounters()
	if tc["metered"].QuotaRejected != 1 {
		t.Errorf("tenant QuotaRejected = %d, want 1", tc["metered"].QuotaRejected)
	}
}

// TestQuotaMaxQueued429: the queued-jobs quota rejects with 429 while
// the global queue still has room, and admission recovers as the
// tenant's jobs drain.
func TestQuotaMaxQueued429(t *testing.T) {
	tenants, err := NewTenantSet([]Tenant{
		{Name: "narrow", Key: "kn", MaxQueued: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	sched, err := NewScheduler(Options{MaxJobs: 1, Queue: 16, CPU: 1, CheckEvery: 25, Tenants: tenants})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = sched.Drain() }()
	narrow := tenants.ByName("narrow")
	// Job 1 dispatches to the shard, job 2 occupies the single queued
	// slot, job 3 must bounce off max_queued with room in the global
	// queue (16) to spare.
	first, code, err := sched.SubmitAs(narrow, JobSpec{Cells: 3, Steps: 500_000, Seed: 1})
	if err != nil || code != SubmitCreated {
		t.Fatalf("submit 1: code %v err %v", code, err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, _ := sched.Get(first.ID)
		if st.State == StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("first job never started")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if _, code, err := sched.SubmitAs(narrow, JobSpec{Cells: 3, Steps: 10, Seed: 2}); err != nil || code != SubmitCreated {
		t.Fatalf("submit 2: code %v err %v", code, err)
	}
	_, code, err = sched.SubmitAs(narrow, JobSpec{Cells: 3, Steps: 10, Seed: 3})
	if code != SubmitQuotaExceeded {
		t.Fatalf("submit 3: code %v err %v, want SubmitQuotaExceeded", code, err)
	}
	var qe *QuotaError
	if !strings.Contains(err.Error(), "max_queued") {
		t.Errorf("quota error %q does not name max_queued", err)
	}
	if !errors.As(err, &qe) || qe.RetryAfterSeconds < 1 {
		t.Errorf("quota error %v lacks a usable RetryAfterSeconds", err)
	}
	// Unblock: cancel the running job; the queued one completes and
	// frees the quota slot.
	if _, ok := sched.Cancel(first.ID); !ok {
		t.Fatal("cancel lookup failed")
	}
	deadline = time.Now().Add(30 * time.Second)
	for {
		if _, code, _ := sched.SubmitAs(narrow, JobSpec{Cells: 3, Steps: 10, Seed: 4}); code == SubmitCreated {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("admission never recovered after quota drain")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestStoreHitsExcludedFromDurationRing pins the other half of the
// Retry-After satellite: cache/store hits complete in microseconds at
// Submit and must not contribute to the executed-job duration ring.
func TestStoreHitsExcludedFromDurationRing(t *testing.T) {
	sched, err := NewScheduler(Options{MaxJobs: 1, Queue: 8, CPU: 1, CheckEvery: 10})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = sched.Drain() }()
	spec := JobSpec{Cells: 3, Steps: 20, Seed: 11}
	st, code, err := sched.Submit(spec)
	if err != nil || code != SubmitCreated {
		t.Fatalf("submit: code %v err %v", code, err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		s, _ := sched.Get(st.ID)
		if s.State == StateDone {
			break
		}
		if s.State == StateFailed {
			t.Fatalf("job failed: %s", s.Error)
		}
		if time.Now().After(deadline) {
			t.Fatal("job never finished")
		}
		time.Sleep(2 * time.Millisecond)
	}
	sched.mu.Lock()
	ringAfterRun := sched.durCount
	sched.mu.Unlock()
	if ringAfterRun != 1 {
		t.Fatalf("durCount = %d after one executed job, want 1", ringAfterRun)
	}
	for i := 0; i < 10; i++ {
		if _, code, err := sched.Submit(spec); err != nil || code != SubmitCacheHit {
			t.Fatalf("resubmit %d: code %v err %v, want cache hit", i, code, err)
		}
	}
	sched.mu.Lock()
	defer sched.mu.Unlock()
	if sched.durCount != ringAfterRun {
		t.Fatalf("durCount = %d after 10 cache hits, want still %d — hits poisoned the Retry-After ring",
			sched.durCount, ringAfterRun)
	}
}

// TestAuthRequiredAndOwnership: with tenancy on, missing/unknown keys
// get 401 on the job endpoints, and canceling another tenant's job is
// 403 — while /healthz stays open for probes.
func TestAuthRequiredAndOwnership(t *testing.T) {
	tenants, err := NewTenantSet([]Tenant{
		{Name: "a", Key: "key-a"},
		{Name: "b", Key: "key-b"},
	})
	if err != nil {
		t.Fatal(err)
	}
	base, _ := startTestServer(t, Options{MaxJobs: 1, Queue: 8, CPU: 1, CheckEvery: 25, Tenants: tenants})

	do := func(method, path, key string, body []byte) *http.Response {
		t.Helper()
		req, err := http.NewRequest(method, base+path, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if key != "" {
			req.Header.Set("Authorization", "Bearer "+key)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = resp.Body.Close() })
		return resp
	}
	spec, _ := json.Marshal(JobSpec{Cells: 3, Steps: 500_000, Seed: 21})
	if resp := do(http.MethodPost, "/jobs", "", spec); resp.StatusCode != http.StatusUnauthorized {
		t.Errorf("no key: status %d, want 401", resp.StatusCode)
	}
	if resp := do(http.MethodPost, "/jobs", "wrong", spec); resp.StatusCode != http.StatusUnauthorized {
		t.Errorf("unknown key: status %d, want 401", resp.StatusCode)
	}
	resp := do(http.MethodPost, "/jobs", "key-a", spec)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("tenant a submit: status %d", resp.StatusCode)
	}
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Tenant != "a" {
		t.Errorf("job tenant %q, want a", st.Tenant)
	}
	if resp := do(http.MethodDelete, "/jobs/"+st.ID, "key-b", nil); resp.StatusCode != http.StatusForbidden {
		t.Errorf("cross-tenant cancel: status %d, want 403", resp.StatusCode)
	}
	if resp := do(http.MethodDelete, "/jobs/"+st.ID, "key-a", nil); resp.StatusCode != http.StatusOK {
		t.Errorf("owner cancel: status %d, want 200", resp.StatusCode)
	}
	if resp := do(http.MethodGet, "/healthz", "", nil); resp.StatusCode != http.StatusOK {
		t.Errorf("healthz without key: status %d, want 200", resp.StatusCode)
	}
}

// TestTenantMetricsRows: /metrics exposes the labeled per-tenant
// families, one HELP/TYPE header per family with one sample per
// tenant under it.
func TestTenantMetricsRows(t *testing.T) {
	tenants, err := NewTenantSet([]Tenant{
		{Name: "acme", Key: "key-acme", Weight: 2},
		{Name: "zeta", Key: "key-zeta"},
	})
	if err != nil {
		t.Fatal(err)
	}
	base, sched := startTestServer(t, Options{MaxJobs: 1, Queue: 8, CPU: 1, CheckEvery: 10, Tenants: tenants})
	if _, code, err := sched.SubmitAs(tenants.ByName("acme"), JobSpec{Cells: 3, Steps: 10, Seed: 31}); err != nil || code != SubmitCreated {
		t.Fatalf("submit: code %v err %v", code, err)
	}
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	var sb strings.Builder
	if _, err := io.Copy(&sb, resp.Body); err != nil {
		t.Fatal(err)
	}
	body := sb.String()
	if n := strings.Count(body, "# TYPE sdcserve_tenant_jobs_submitted_total counter"); n != 1 {
		t.Errorf("tenant submitted family has %d TYPE headers, want exactly 1", n)
	}
	if !strings.Contains(body, `sdcserve_tenant_jobs_submitted_total{tenant="acme"} 1`) {
		t.Errorf("missing acme submitted sample in:\n%s", body)
	}
	// zeta has no jobs yet but is NOT listed: tenant rows appear once a
	// tenant has interacted with the scheduler. acme must be there.
	if !strings.Contains(body, `tenant="acme"`) {
		t.Error("no acme-labeled rows at all")
	}
}
