package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"
)

// Load-harness tenant credentials: two tenants at 3:1 fair-share
// weights, the light one with a tight queue quota so the run exercises
// quota 429s alongside global backpressure.
const (
	loadGoldKey   = "load-gold-key"
	loadBronzeKey = "load-bronze-key"
)

// LoadOptions sizes the traffic-shaped load run.
type LoadOptions struct {
	// Clients is the number of concurrent synthetic clients (default
	// 200). Clients split across the two built-in tenants and across
	// three behaviors: submit+poll, submit+stream (SSE), submit+cancel.
	Clients int
	// Duration is how long clients keep submitting (default 3s); the
	// run ends once every client finishes its in-flight work.
	Duration time.Duration
	// MaxJobs is the shard count of the loaded scheduler (default 4).
	MaxJobs int
	// Queue is the global admission queue capacity (default 256 —
	// large, so most 429s are tenant quotas, the interesting kind).
	Queue int
	// Cells and Steps size each job (defaults 3 and 5 — the smallest
	// legal box and a handful of steps: the harness measures traffic
	// handling, not force-loop throughput).
	Cells int
	Steps int
}

func (o LoadOptions) withDefaults() LoadOptions {
	if o.Clients <= 0 {
		o.Clients = 200
	}
	if o.Duration <= 0 {
		o.Duration = 3 * time.Second
	}
	if o.MaxJobs <= 0 {
		o.MaxJobs = 4
	}
	if o.Queue <= 0 {
		o.Queue = 256
	}
	if o.Cells <= 0 {
		o.Cells = 3
	}
	if o.Steps <= 0 {
		o.Steps = 5
	}
	return o
}

// LoadResult is the machine-readable output of RunLoad
// (BENCH_load.json). Baseline comparisons check the rate fields —
// completion rate, 429 rate, stream-drop rate — which are
// host-speed-independent; the throughput and latency numbers are
// informational context from the baseline machine.
type LoadResult struct {
	Clients         int     `json:"clients"`
	DurationSeconds float64 `json:"duration_seconds"`
	WallSeconds     float64 `json:"wall_seconds"`

	// Submits counts POST /jobs attempts; Admitted of those became (or
	// joined) jobs, Rejected429 hit backpressure or a quota, and
	// Errors are transport/unexpected-status failures.
	Submits     int `json:"submits"`
	Admitted    int `json:"admitted"`
	Rejected429 int `json:"rejected_429"`
	Errors      int `json:"errors"`

	// Completed jobs reached done; Canceled were killed by their own
	// client on purpose.
	Completed int `json:"completed"`
	Canceled  int `json:"canceled"`

	JobsPerSec float64 `json:"jobs_per_sec"`
	// P50Ms/P95Ms/P99Ms are submit-to-done latencies of completed jobs.
	P50Ms float64 `json:"p50_ms"`
	P95Ms float64 `json:"p95_ms"`
	P99Ms float64 `json:"p99_ms"`

	// Rate429 = Rejected429/Submits. CompletionRate =
	// Completed/Admitted (cancels make it < 1 by design).
	Rate429        float64 `json:"rate_429"`
	CompletionRate float64 `json:"completion_rate"`

	// StreamsOpened counts SSE attachments; StreamDropRate is the
	// fraction that ended without delivering a terminal status event.
	StreamsOpened  int     `json:"streams_opened"`
	StreamDropRate float64 `json:"stream_drop_rate"`

	// TenantCompleted breaks completions down by tenant — the
	// fair-share signal (gold is weighted 3, bronze 1).
	TenantCompleted map[string]int `json:"tenant_completed"`
}

// loadTally is the shared scoreboard the client goroutines write.
type loadTally struct {
	mu              sync.Mutex
	submits         int
	admitted        int
	rejected429     int
	errors          int
	completed       int
	canceled        int
	streamsOpened   int
	streamsDropped  int
	latMs           []float64
	tenantCompleted map[string]int
}

// loadClient is one synthetic client's identity and behavior.
type loadClient struct {
	id     int
	key    string
	tenant string
	mode   string // "poll", "stream" or "cancel"
}

// RunLoad stands up a tenancy-enabled server on a loopback port and
// drives Clients concurrent synthetic clients against it for Duration:
// every client submits jobs in a loop and then either polls to
// completion, tails the SSE event stream to the terminal event, or
// cancels mid-flight — mixed across two tenants with 3:1 weights and a
// tight quota on the light one. The returned rates are the traffic
// trajectory CI defends.
func RunLoad(o LoadOptions) (LoadResult, error) {
	o = o.withDefaults()
	tenants, err := NewTenantSet([]Tenant{
		{Name: "gold", Key: loadGoldKey, Weight: 3},
		// Bronze is deliberately throttled — a small queue quota and a
		// steps/sec budget well below what its clients offer — so the
		// run exercises quota 429s and their quota-scoped Retry-After.
		{Name: "bronze", Key: loadBronzeKey, Weight: 1, MaxQueued: 8, MaxStepsPerSec: 400},
	})
	if err != nil {
		return LoadResult{}, err
	}
	sched, err := NewScheduler(Options{
		MaxJobs:     o.MaxJobs,
		Queue:       o.Queue,
		CheckEvery:  5,
		Tenants:     tenants,
		StreamEvery: 20 * time.Millisecond,
	})
	if err != nil {
		return LoadResult{}, err
	}
	srv, err := Start("127.0.0.1:0", sched)
	if err != nil {
		_ = sched.Drain()
		return LoadResult{}, err
	}
	defer func() {
		// Drain before Close: streams get their terminal events first.
		_ = sched.Drain()
		_ = srv.Close()
	}()
	base := "http://" + srv.Addr()
	hc := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        o.Clients,
		MaxIdleConnsPerHost: o.Clients,
	}}
	defer hc.CloseIdleConnections()

	tally := &loadTally{tenantCompleted: map[string]int{}}
	deadline := time.Now().Add(o.Duration)
	// Everything a client waits on is bounded by this hard stop so a
	// stuck poll or stream cannot hang the harness.
	ctx, cancel := context.WithDeadline(context.Background(), deadline.Add(30*time.Second))
	defer cancel()

	var wg sync.WaitGroup
	wall0 := time.Now()
	for i := 0; i < o.Clients; i++ {
		c := loadClient{id: i}
		// 3 gold clients per bronze client, matching the 3:1 weights so
		// the heavier tenant actually offers more load.
		if i%4 == 3 {
			c.key, c.tenant = loadBronzeKey, "bronze"
		} else {
			c.key, c.tenant = loadGoldKey, "gold"
		}
		switch i % 5 {
		case 0, 1:
			c.mode = "poll"
		case 2, 3:
			c.mode = "stream"
		default:
			c.mode = "cancel"
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			runLoadClient(ctx, hc, base, c, o, deadline, tally)
		}()
	}
	wg.Wait()
	wall := time.Since(wall0).Seconds()

	t := tally
	t.mu.Lock()
	defer t.mu.Unlock()
	sort.Float64s(t.latMs)
	res := LoadResult{
		Clients:         o.Clients,
		DurationSeconds: o.Duration.Seconds(),
		WallSeconds:     wall,
		Submits:         t.submits,
		Admitted:        t.admitted,
		Rejected429:     t.rejected429,
		Errors:          t.errors,
		Completed:       t.completed,
		Canceled:        t.canceled,
		JobsPerSec:      float64(t.completed) / wall,
		P50Ms:           percentile(t.latMs, 0.50),
		P95Ms:           percentile(t.latMs, 0.95),
		P99Ms:           percentile(t.latMs, 0.99),
		StreamsOpened:   t.streamsOpened,
		TenantCompleted: t.tenantCompleted,
	}
	if t.submits > 0 {
		res.Rate429 = float64(t.rejected429) / float64(t.submits)
	}
	if t.admitted > 0 {
		res.CompletionRate = float64(t.completed) / float64(t.admitted)
	}
	if t.streamsOpened > 0 {
		res.StreamDropRate = float64(t.streamsDropped) / float64(t.streamsOpened)
	}
	return res, nil
}

// percentile reads the p-th percentile (nearest-rank) from sorted data.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// runLoadClient is one client's submit loop until the deadline.
func runLoadClient(ctx context.Context, hc *http.Client, base string, c loadClient, o LoadOptions, deadline time.Time, tally *loadTally) {
	rng := rand.New(rand.NewSource(int64(c.id + 1)))
	for iter := 0; time.Now().Before(deadline); iter++ {
		// Unique seed per (client, iteration): jobs do real work instead
		// of collapsing onto one cache entry; coalescing still happens
		// when two in-flight submissions collide, which is fine — that
		// path is part of production traffic too.
		seed := int64(c.id)*1_000_000 + int64(iter) + 1
		spec := JobSpec{Cells: o.Cells, Steps: o.Steps, Seed: seed}
		if c.mode == "cancel" {
			// Cancel clients submit longer jobs: a Steps-sized job is done
			// in about a millisecond, which the DELETE always loses to —
			// the point of this mode is to cancel work in flight.
			spec.Steps = o.Steps * 50
		}
		st, status, err := loadSubmit(ctx, hc, base, c.key, spec)
		tally.mu.Lock()
		tally.submits++
		tally.mu.Unlock()
		switch {
		case err != nil:
			if ctx.Err() != nil {
				return
			}
			tally.mu.Lock()
			tally.errors++
			tally.mu.Unlock()
			return
		case status == http.StatusTooManyRequests:
			tally.mu.Lock()
			tally.rejected429++
			tally.mu.Unlock()
			if !sleepCtx(ctx, time.Duration(1+rng.Intn(5))*time.Millisecond) {
				return
			}
			continue
		case status != http.StatusCreated && status != http.StatusOK:
			tally.mu.Lock()
			tally.errors++
			tally.mu.Unlock()
			continue
		}
		tally.mu.Lock()
		tally.admitted++
		tally.mu.Unlock()
		t0 := time.Now()
		switch c.mode {
		case "stream":
			loadStream(ctx, hc, base, c, st.ID, t0, tally)
		case "cancel":
			if !sleepCtx(ctx, time.Duration(rng.Intn(4))*time.Millisecond) {
				return
			}
			loadCancel(ctx, hc, base, c, st.ID, t0, tally)
		default:
			loadPoll(ctx, hc, base, c, st.ID, t0, tally)
		}
	}
}

func loadSubmit(ctx context.Context, hc *http.Client, base, key string, spec JobSpec) (Status, int, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return Status{}, 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/jobs", bytes.NewReader(body))
	if err != nil {
		return Status{}, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-API-Key", key)
	resp, err := hc.Do(req)
	if err != nil {
		return Status{}, 0, err
	}
	defer func() { _ = resp.Body.Close() }()
	var st Status
	if resp.StatusCode == http.StatusCreated || resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			return Status{}, resp.StatusCode, err
		}
	} else {
		_, _ = io.Copy(io.Discard, resp.Body)
	}
	return st, resp.StatusCode, nil
}

func loadGetStatus(ctx context.Context, hc *http.Client, base, key, id string) (Status, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/jobs/"+id, nil)
	if err != nil {
		return Status{}, err
	}
	req.Header.Set("X-API-Key", key)
	resp, err := hc.Do(req)
	if err != nil {
		return Status{}, err
	}
	defer func() { _ = resp.Body.Close() }()
	var st Status
	err = json.NewDecoder(resp.Body).Decode(&st)
	return st, err
}

func terminalState(state string) bool {
	switch state {
	case StateDone, StateFailed, StateCanceled, StateInterrupted:
		return true
	}
	return false
}

func (t *loadTally) settle(c loadClient, state string, t0 time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	switch state {
	case StateDone:
		t.completed++
		t.tenantCompleted[c.tenant]++
		t.latMs = append(t.latMs, time.Since(t0).Seconds()*1e3)
	case StateCanceled:
		t.canceled++
	}
}

func loadPoll(ctx context.Context, hc *http.Client, base string, c loadClient, id string, t0 time.Time, tally *loadTally) {
	for ctx.Err() == nil {
		st, err := loadGetStatus(ctx, hc, base, c.key, id)
		if err != nil {
			return
		}
		if terminalState(st.State) {
			tally.settle(c, st.State, t0)
			return
		}
		if !sleepCtx(ctx, 2*time.Millisecond) {
			return
		}
	}
}

// sleepCtx sleeps for d unless the context ends first; it reports
// whether the full sleep elapsed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

func loadCancel(ctx context.Context, hc *http.Client, base string, c loadClient, id string, t0 time.Time, tally *loadTally) {
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete, base+"/jobs/"+id, nil)
	if err != nil {
		return
	}
	req.Header.Set("X-API-Key", c.key)
	resp, err := hc.Do(req)
	if err != nil {
		return
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
	// The cancel may have raced job completion — either terminal state
	// is a success for the harness; poll the definitive answer.
	loadPoll(ctx, hc, base, c, id, t0, tally)
}

// loadStream tails the job's SSE feed and scores the stream dropped if
// it ends without a terminal status event.
func loadStream(ctx context.Context, hc *http.Client, base string, c loadClient, id string, t0 time.Time, tally *loadTally) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/jobs/"+id+"/events", nil)
	if err != nil {
		return
	}
	req.Header.Set("X-API-Key", c.key)
	resp, err := hc.Do(req)
	if err != nil {
		return
	}
	defer func() { _ = resp.Body.Close() }()
	tally.mu.Lock()
	tally.streamsOpened++
	tally.mu.Unlock()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body)
		tally.mu.Lock()
		tally.streamsDropped++
		tally.mu.Unlock()
		return
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: ") && event == EventStatus:
			var st Status
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &st); err != nil {
				continue
			}
			if terminalState(st.State) {
				tally.settle(c, st.State, t0)
				return
			}
		}
	}
	// Feed ended (EOF or scan error) without a terminal event.
	tally.mu.Lock()
	tally.streamsDropped++
	tally.mu.Unlock()
}

// CompareLoadBaseline checks a load run against the committed
// baseline. Only rates are compared — completion rate, 429 rate,
// stream-drop rate, each within tol absolute — because they describe
// the traffic contract; throughput and latency depend on the host.
// A run that completed zero jobs fails outright.
func CompareLoadBaseline(res, baseline *LoadResult, tol float64) error {
	if tol <= 0 {
		return fmt.Errorf("serve: load baseline tolerance %g must be positive", tol)
	}
	if res.Completed == 0 {
		return fmt.Errorf("serve: load run completed zero jobs")
	}
	checks := []struct {
		name      string
		got, want float64
	}{
		{"completion_rate", res.CompletionRate, baseline.CompletionRate},
		{"rate_429", res.Rate429, baseline.Rate429},
		{"stream_drop_rate", res.StreamDropRate, baseline.StreamDropRate},
	}
	for _, c := range checks {
		if diff := c.got - c.want; diff > tol || diff < -tol {
			return fmt.Errorf("serve: load %s %.3f drifted from baseline %.3f (tolerance %.2f absolute)",
				c.name, c.got, c.want, tol)
		}
	}
	return nil
}

// WriteJSON emits the result as indented JSON (the BENCH_load.json
// format).
func (r *LoadResult) WriteJSON(w io.Writer) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// ReadLoadResult parses a WriteJSON document (a committed baseline).
// Unknown fields are rejected so a baseline written by a different
// schema revision fails loudly instead of silently diffing zeros.
func ReadLoadResult(r io.Reader) (*LoadResult, error) {
	var res LoadResult
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		return nil, fmt.Errorf("serve: bad load baseline: %w", err)
	}
	return &res, nil
}

// Render prints the human-readable load summary.
func (r *LoadResult) Render(w io.Writer) error {
	var b strings.Builder
	_, _ = fmt.Fprintf(&b, "Load — %d concurrent clients for %.1fs (wall %.2fs)\n",
		r.Clients, r.DurationSeconds, r.WallSeconds)
	_, _ = fmt.Fprintf(&b, "  submits %d  admitted %d  429s %d (rate %.3f)  errors %d\n",
		r.Submits, r.Admitted, r.Rejected429, r.Rate429, r.Errors)
	_, _ = fmt.Fprintf(&b, "  completed %d (%.1f jobs/s, completion rate %.3f)  canceled %d\n",
		r.Completed, r.JobsPerSec, r.CompletionRate, r.Canceled)
	_, _ = fmt.Fprintf(&b, "  latency ms p50 %.1f  p95 %.1f  p99 %.1f\n", r.P50Ms, r.P95Ms, r.P99Ms)
	_, _ = fmt.Fprintf(&b, "  streams %d  drop rate %.3f\n", r.StreamsOpened, r.StreamDropRate)
	names := make([]string, 0, len(r.TenantCompleted))
	for name := range r.TenantCompleted {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		_, _ = fmt.Fprintf(&b, "  tenant %-8s completed %d\n", name, r.TenantCompleted[name])
	}
	_, err := io.WriteString(w, b.String())
	return err
}
