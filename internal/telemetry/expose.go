package telemetry

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"strings"
	"sync"
	"time"
)

// promWriter accumulates exposition lines, remembering the first write
// failure so every emit call stays checked.
type promWriter struct {
	w   io.Writer
	err error
}

func (p *promWriter) printf(format string, args ...any) {
	if p.err != nil {
		return
	}
	_, p.err = fmt.Fprintf(p.w, format, args...)
}

// header emits the HELP/TYPE preamble of one metric family.
func (p *promWriter) header(name, kind, help string) {
	p.printf("# HELP %s %s\n", name, help)
	p.printf("# TYPE %s %s\n", name, kind)
}

// Row is one self-describing exposition row (an unlabeled family with a
// single sample) for services that append their own counters after a
// Metrics block — e.g. the sdcserve_* job and store counters.
type Row struct {
	// Name is the metric family name; Kind is "counter" or "gauge".
	Name, Kind, Help string
	Value            float64
}

// WriteRows renders rows in the Prometheus text exposition format with
// the same HELP/TYPE discipline as WritePrometheus, returning the first
// write error. Integral values render without a decimal point, so
// counters composed through here match hand-written %d output.
func WriteRows(w io.Writer, rows []Row) error {
	b := &promWriter{w: w}
	for _, r := range rows {
		b.header(r.Name, r.Kind, r.Help)
		b.printf("%s %g\n", r.Name, r.Value)
	}
	return b.err
}

// WritePrometheus renders the snapshot in the Prometheus text
// exposition format (version 0.0.4). Metric names are stable API; see
// DESIGN.md "Observability".
func (m Metrics) WritePrometheus(w io.Writer) error {
	b := &promWriter{w: w}
	b.header("sdcmd_uptime_seconds", "gauge", "Wall time since the recorder was created.")
	b.printf("sdcmd_uptime_seconds %g\n", m.UptimeSeconds)

	b.header("sdcmd_phase_seconds_total", "counter", "Accumulated wall time per EAM force phase.")
	for _, p := range []Phase{PhaseDensity, PhaseEmbed, PhaseForce} {
		b.printf("sdcmd_phase_seconds_total{phase=%q} %g\n", p.String(), m.Phase(p).Seconds)
	}
	b.header("sdcmd_phase_calls_total", "counter", "Timed intervals per EAM force phase.")
	for _, p := range []Phase{PhaseDensity, PhaseEmbed, PhaseForce} {
		b.printf("sdcmd_phase_calls_total{phase=%q} %d\n", p.String(), m.Phase(p).Calls)
	}

	if len(m.Colors) > 0 {
		b.header("sdcmd_color_seconds_total", "counter", "Accumulated SDC sweep time per color.")
		for _, c := range m.Colors {
			b.printf("sdcmd_color_seconds_total{color=\"%d\"} %g\n", c.Color, c.Seconds)
		}
		b.header("sdcmd_color_sweeps_total", "counter", "SDC color sweeps executed.")
		for _, c := range m.Colors {
			b.printf("sdcmd_color_sweeps_total{color=\"%d\"} %d\n", c.Color, c.Sweeps)
		}
	}

	if len(m.Workers) > 0 {
		b.header("sdcmd_worker_busy_seconds_total", "counter", "Time each pool worker spent executing region bodies.")
		for _, wk := range m.Workers {
			b.printf("sdcmd_worker_busy_seconds_total{worker=\"%d\"} %g\n", wk.Worker, wk.BusySeconds)
		}
		b.header("sdcmd_worker_wait_seconds_total", "counter", "Time each pool worker spent at region barriers.")
		for _, wk := range m.Workers {
			b.printf("sdcmd_worker_wait_seconds_total{worker=\"%d\"} %g\n", wk.Worker, wk.WaitSeconds)
		}
		b.header("sdcmd_worker_utilization", "gauge", "Busy fraction busy/(busy+wait) per pool worker.")
		for _, wk := range m.Workers {
			b.printf("sdcmd_worker_utilization{worker=\"%d\"} %g\n", wk.Worker, wk.Utilization)
		}
	}

	b.header("sdcmd_rebuilds_total", "counter", "Neighbor-list (re)builds.")
	b.printf("sdcmd_rebuilds_total %d\n", m.Rebuilds)
	b.header("sdcmd_faults_total", "counter", "Guard faults caught (invariant violations and integrator errors).")
	b.printf("sdcmd_faults_total %d\n", m.Faults)
	b.header("sdcmd_rollbacks_total", "counter", "Guard rollbacks to a good snapshot.")
	b.printf("sdcmd_rollbacks_total %d\n", m.Rollbacks)
	b.header("sdcmd_checkpoints_total", "counter", "Atomic on-disk checkpoints written.")
	b.printf("sdcmd_checkpoints_total %d\n", m.Checkpoints)
	return b.err
}

// Handler serves /metrics: Prometheus text by default, JSON when the
// request asks for it (?format=json or an Accept header preferring
// application/json).
func Handler(snapshot func() Metrics) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		m := snapshot()
		wantJSON := req.URL.Query().Get("format") == "json" ||
			strings.Contains(req.Header.Get("Accept"), "application/json")
		if wantJSON {
			w.Header().Set("Content-Type", "application/json")
			if err := json.NewEncoder(w).Encode(m); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := m.WritePrometheus(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
}

// NewServeMux builds the diagnostic mux: /metrics (text + JSON) and the
// net/http/pprof endpoints under /debug/pprof/, wired explicitly so the
// binary never depends on http.DefaultServeMux.
func NewServeMux(snapshot func() Metrics) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", Handler(snapshot))
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Server is a running HTTP listener: a run's diagnostics endpoint
// (Serve) or the sdcserve job API (Listen under serve.Start).
type Server struct {
	srv  *http.Server
	addr string

	mu   sync.Mutex
	serr error // first non-shutdown Serve error
	done chan struct{}
}

// Serve listens on addr and serves NewServeMux(snapshot) until Close.
func Serve(addr string, snapshot func() Metrics) (*Server, error) {
	s, err := Listen(addr, NewServeMux(snapshot))
	if err != nil {
		return nil, fmt.Errorf("telemetry: %w", err)
	}
	return s, nil
}

// Listen listens on addr (host:port; port 0 picks a free port) and
// serves h until Close. The accept loop runs on its own goroutine —
// control plane, outside the pool by design.
func Listen(addr string, h http.Handler) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("listen %s: %w", addr, err)
	}
	s := &Server{
		srv:  &http.Server{Handler: h},
		addr: ln.Addr().String(),
		done: make(chan struct{}),
	}
	go func() {
		defer close(s.done)
		if err := s.srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			s.mu.Lock()
			s.serr = err
			s.mu.Unlock()
		}
	}()
	return s, nil
}

// Addr returns the bound listen address (useful with port 0).
func (s *Server) Addr() string { return s.addr }

// closeGrace bounds how long Close waits for in-flight requests: long
// enough for a slow Prometheus scrape to finish rendering, short enough
// that a wedged client cannot hold a finished run hostage.
const closeGrace = 2 * time.Second

// Close stops the listener gracefully — in-flight requests get up to
// closeGrace to complete before the remaining connections are
// hard-closed — and reports the first serve failure, if any. A
// hard-close after the grace period is not itself an error: the run's
// data is intact, only a stuck client's response was cut short.
func (s *Server) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), closeGrace)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if err != nil {
		err = s.srv.Close()
	}
	// Bounded join: Shutdown/Close above stop the listener, which makes
	// Serve return and the accept-loop goroutine close(s.done); the
	// grace period caps the whole wait at closeGrace.
	//lint:ignore ctx-propagation join bounded by closeGrace — the accept loop exits once the listener stops
	<-s.done
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.serr != nil {
		return s.serr
	}
	return err
}

// streamRecord is one JSONL line: a timestamp plus the full snapshot —
// the same sink style as the guard event log.
type streamRecord struct {
	Time string `json:"t"`
	Metrics
}

// Streamer periodically appends metric snapshots as JSON lines.
type Streamer struct {
	w        io.Writer
	snapshot func() Metrics

	stop chan struct{}
	done chan struct{}

	mu   sync.Mutex
	werr error // first write failure; ends the stream, kept for Close
}

// StartStream emits one JSON line of metrics to w every interval, plus
// a final line at Close. Writes happen only on the streamer goroutine,
// so w needs no locking by the caller.
func StartStream(w io.Writer, every time.Duration, snapshot func() Metrics) (*Streamer, error) {
	if w == nil {
		return nil, errors.New("telemetry: nil stream writer")
	}
	if every <= 0 {
		return nil, fmt.Errorf("telemetry: stream interval %v must be positive", every)
	}
	if snapshot == nil {
		return nil, errors.New("telemetry: nil snapshot source")
	}
	s := &Streamer{w: w, snapshot: snapshot, stop: make(chan struct{}), done: make(chan struct{})}
	go s.run(every)
	return s, nil
}

func (s *Streamer) run(every time.Duration) {
	defer close(s.done)
	tick := time.NewTicker(every)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			if !s.emit() {
				return
			}
		case <-s.stop:
			s.emit() // final snapshot so short runs still record one line
			return
		}
	}
}

// emit writes one line; false stops the stream after a write failure
// (the in-memory recorder stays intact; only the sink is lost).
func (s *Streamer) emit() bool {
	rec := streamRecord{Time: time.Now().UTC().Format(time.RFC3339Nano), Metrics: s.snapshot()}
	b, err := json.Marshal(rec)
	if err == nil {
		b = append(b, '\n')
		_, err = s.w.Write(b)
	}
	if err != nil {
		s.mu.Lock()
		if s.werr == nil {
			s.werr = err
		}
		s.mu.Unlock()
		return false
	}
	return true
}

// Close stops the stream, writes a final snapshot line and returns the
// first write failure, if any.
func (s *Streamer) Close() error {
	select {
	case <-s.stop:
	default:
		close(s.stop)
	}
	// Bounded join: close(s.stop) above makes run() take its stop case,
	// emit the final line and close(s.done) on the way out.
	//lint:ignore ctx-propagation join bounded by the stop channel just closed — run() exits its select promptly
	<-s.done
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.werr
}
