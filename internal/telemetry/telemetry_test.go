package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	sp := r.Span()
	if sp.live {
		t.Error("nil recorder produced a live span")
	}
	if sp.Elapsed() != 0 {
		t.Error("dead span reported non-zero elapsed time")
	}
	// None of these may panic.
	r.AddPhase(PhaseDensity, time.Second)
	r.EndPhase(PhaseForce, sp)
	r.AddColor(0, time.Second)
	r.AddWorker(0, time.Second, time.Second)
	r.IncRebuild()
	r.IncFault()
	r.IncRollback()
	r.IncCheckpoint()
	if m := r.Snapshot(); m.Rebuilds != 0 || m.PhaseSeconds() != 0 {
		t.Errorf("nil recorder snapshot not zero: %+v", m)
	}
}

func TestRecorderAccumulates(t *testing.T) {
	r := NewRecorder()
	r.AddPhase(PhaseDensity, 2*time.Second)
	r.AddPhase(PhaseDensity, time.Second)
	r.AddPhase(PhaseEmbed, time.Second)
	r.AddPhase(PhaseForce, 4*time.Second)
	r.AddColor(1, time.Second)
	r.AddColor(1, time.Second)
	r.AddColor(MaxColors+5, time.Second) // folded into the last bucket
	r.AddWorker(0, 3*time.Second, time.Second)
	r.IncRebuild()
	r.IncRebuild()
	r.IncFault()
	r.IncRollback()
	r.IncCheckpoint()

	m := r.Snapshot()
	if m.Density.Seconds != 3 || m.Density.Calls != 2 {
		t.Errorf("density = %+v, want 3s over 2 calls", m.Density)
	}
	if m.Embed.Seconds != 1 || m.Force.Seconds != 4 {
		t.Errorf("embed/force = %+v / %+v", m.Embed, m.Force)
	}
	if got := m.PhaseSeconds(); got != 8 {
		t.Errorf("PhaseSeconds = %g, want 8", got)
	}
	if len(m.Colors) != 2 {
		t.Fatalf("got %d color stats, want 2 (color 1 and the overflow bucket): %+v", len(m.Colors), m.Colors)
	}
	if m.Colors[0].Color != 1 || m.Colors[0].Seconds != 2 || m.Colors[0].Sweeps != 2 {
		t.Errorf("color 1 stat = %+v", m.Colors[0])
	}
	if m.Colors[1].Color != MaxColors-1 {
		t.Errorf("overflow color landed in bucket %d, want %d", m.Colors[1].Color, MaxColors-1)
	}
	if len(m.Workers) != 1 {
		t.Fatalf("got %d worker stats, want 1", len(m.Workers))
	}
	if u := m.Workers[0].Utilization; u != 0.75 {
		t.Errorf("utilization = %g, want 0.75", u)
	}
	if m.Rebuilds != 2 || m.Faults != 1 || m.Rollbacks != 1 || m.Checkpoints != 1 {
		t.Errorf("counters = %d/%d/%d/%d", m.Rebuilds, m.Faults, m.Rollbacks, m.Checkpoints)
	}
}

func TestRecorderConcurrentUse(t *testing.T) {
	r := NewRecorder()
	// A reader snapshots while the writers run, so the race detector
	// sees every Snapshot load against the writers' updates.
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			r.Snapshot()
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				r.AddPhase(PhaseDensity, time.Microsecond)
				r.AddColor(g%4, time.Microsecond)
				r.AddWorker(g, time.Microsecond, time.Microsecond)
				r.IncRebuild()
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	<-done
	m := r.Snapshot()
	if m.Density.Calls != 8*200 {
		t.Errorf("density calls = %d, want %d", m.Density.Calls, 8*200)
	}
	if m.Rebuilds != 8*200 {
		t.Errorf("rebuilds = %d, want %d", m.Rebuilds, 8*200)
	}
	if len(m.Workers) != 8 {
		t.Errorf("worker stats = %d, want 8", len(m.Workers))
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRecorder()
	r.AddPhase(PhaseDensity, time.Second)
	r.AddColor(0, time.Second)
	r.AddWorker(0, time.Second, time.Second)
	r.IncRebuild()
	var buf bytes.Buffer
	if err := r.Snapshot().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`sdcmd_uptime_seconds`,
		`sdcmd_phase_seconds_total{phase="density"} 1`,
		`sdcmd_phase_calls_total{phase="density"} 1`,
		`sdcmd_color_seconds_total{color="0"} 1`,
		`sdcmd_worker_utilization{worker="0"} 0.5`,
		`sdcmd_rebuilds_total 1`,
		`sdcmd_faults_total 0`,
		"# TYPE sdcmd_phase_seconds_total counter",
		"# HELP sdcmd_rollbacks_total",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

// errWriter fails after n bytes, to exercise the first-error capture.
type errWriter struct{ left int }

func (e *errWriter) Write(p []byte) (int, error) {
	if len(p) > e.left {
		n := e.left
		e.left = 0
		return n, fmt.Errorf("sink full")
	}
	e.left -= len(p)
	return len(p), nil
}

func TestWritePrometheusPropagatesWriteError(t *testing.T) {
	r := NewRecorder()
	if err := r.Snapshot().WritePrometheus(&errWriter{left: 10}); err == nil {
		t.Fatal("write error was swallowed")
	}
}

func TestServeMetricsAndPprof(t *testing.T) {
	r := NewRecorder()
	r.AddPhase(PhaseForce, time.Second)
	srv, err := Serve("127.0.0.1:0", r.Snapshot)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := srv.Close(); err != nil {
			t.Errorf("server close: %v", err)
		}
	}()

	get := func(path string) (string, string) {
		t.Helper()
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer func() { _ = resp.Body.Close() }()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: read: %v", path, err)
		}
		return string(body), resp.Header.Get("Content-Type")
	}

	body, ctype := get("/metrics")
	if !strings.Contains(ctype, "text/plain") {
		t.Errorf("/metrics content type %q", ctype)
	}
	if !strings.Contains(body, `sdcmd_phase_seconds_total{phase="force"} 1`) {
		t.Errorf("/metrics missing force phase:\n%s", body)
	}

	body, ctype = get("/metrics?format=json")
	if !strings.Contains(ctype, "application/json") {
		t.Errorf("JSON content type %q", ctype)
	}
	var m Metrics
	if err := json.Unmarshal([]byte(body), &m); err != nil {
		t.Fatalf("JSON metrics: %v", err)
	}
	if m.Force.Seconds != 1 {
		t.Errorf("JSON force seconds = %g, want 1", m.Force.Seconds)
	}

	body, _ = get("/debug/pprof/")
	if !strings.Contains(body, "goroutine") {
		t.Errorf("pprof index unexpected:\n%.200s", body)
	}
}

// TestCloseWaitsForSlowScrape is the regression test for the graceful
// shutdown path: Close used to hard-close the listener, cutting
// in-flight /metrics responses mid-body. A scrape that is already
// inside the handler when Close begins must now complete with a full
// 200 response.
func TestCloseWaitsForSlowScrape(t *testing.T) {
	r := NewRecorder()
	r.AddPhase(PhaseForce, time.Second)
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	slowSnapshot := func() Metrics {
		once.Do(func() {
			close(entered)
			<-release
		})
		return r.Snapshot()
	}
	srv, err := Serve("127.0.0.1:0", slowSnapshot)
	if err != nil {
		t.Fatal(err)
	}

	type scrape struct {
		body string
		code int
		err  error
	}
	got := make(chan scrape, 1)
	go func() {
		resp, err := http.Get("http://" + srv.Addr() + "/metrics")
		if err != nil {
			got <- scrape{err: err}
			return
		}
		defer func() { _ = resp.Body.Close() }()
		body, err := io.ReadAll(resp.Body)
		got <- scrape{body: string(body), code: resp.StatusCode, err: err}
	}()

	<-entered // the scrape is inside the handler now
	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()
	// Give Shutdown a moment to begin, then let the handler finish; the
	// response must still make it out whole.
	time.Sleep(20 * time.Millisecond)
	close(release)

	res := <-got
	if res.err != nil {
		t.Fatalf("slow scrape failed during shutdown: %v", res.err)
	}
	if res.code != http.StatusOK {
		t.Fatalf("slow scrape got status %d", res.code)
	}
	if !strings.Contains(res.body, `sdcmd_phase_seconds_total{phase="force"} 1`) {
		t.Errorf("scrape body truncated:\n%s", res.body)
	}
	if err := <-closed; err != nil {
		t.Errorf("graceful close: %v", err)
	}
}

func TestStreamer(t *testing.T) {
	r := NewRecorder()
	r.AddPhase(PhaseEmbed, time.Second)
	var mu sync.Mutex
	var buf bytes.Buffer
	w := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return buf.Write(p)
	})
	s, err := StartStream(w, 5*time.Millisecond, r.Snapshot)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(30 * time.Millisecond)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	sc := bufio.NewScanner(bytes.NewReader(buf.Bytes()))
	lines := 0
	for sc.Scan() {
		lines++
		var rec struct {
			Time string `json:"t"`
			Metrics
		}
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("line %d: %v", lines, err)
		}
		if rec.Time == "" || rec.Embed.Seconds != 1 {
			t.Errorf("line %d: bad record %s", lines, sc.Text())
		}
	}
	if lines < 2 {
		t.Errorf("got %d stream lines, want >= 2 (ticks plus the final flush)", lines)
	}
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

func TestStartStreamValidation(t *testing.T) {
	r := NewRecorder()
	if _, err := StartStream(nil, time.Second, r.Snapshot); err == nil {
		t.Error("nil writer accepted")
	}
	if _, err := StartStream(&bytes.Buffer{}, 0, r.Snapshot); err == nil {
		t.Error("zero interval accepted")
	}
	if _, err := StartStream(&bytes.Buffer{}, time.Second, nil); err == nil {
		t.Error("nil snapshot accepted")
	}
}
