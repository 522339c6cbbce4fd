package sdcmd

import (
	"fmt"
	"io"
	"time"

	"sdcmd/internal/telemetry"
)

// PhaseMetrics reports one EAM phase timer (§II.C: density, embed,
// force).
type PhaseMetrics struct {
	// Seconds is the accumulated wall time of the phase.
	Seconds float64 `json:"seconds"`
	// Calls is how many timed intervals were accumulated.
	Calls int64 `json:"calls"`
}

// ColorMetrics reports one SDC color's accumulated sweep time.
type ColorMetrics struct {
	Color   int     `json:"color"`
	Seconds float64 `json:"seconds"`
	Sweeps  int64   `json:"sweeps"`
}

// WorkerMetrics reports one pool worker's busy/wait split across
// parallel regions; Utilization is busy/(busy+wait).
type WorkerMetrics struct {
	Worker      int     `json:"worker"`
	BusySeconds float64 `json:"busy_seconds"`
	WaitSeconds float64 `json:"wait_seconds"`
	Utilization float64 `json:"utilization"`
}

// Metrics is a snapshot of a simulation's telemetry: the paper's
// per-phase decomposition (§III.A), per-color and per-worker costs, and
// the structural/fault counters. All fields are zero when the
// simulation was built without SimOptions.Telemetry.
type Metrics struct {
	// UptimeSeconds is the wall time since the recorder was created.
	UptimeSeconds float64 `json:"uptime_seconds"`
	// Density, Embed and Force are the three EAM phases.
	Density PhaseMetrics `json:"density"`
	Embed   PhaseMetrics `json:"embed"`
	Force   PhaseMetrics `json:"force"`
	// Colors holds per-color sweep times (SDC strategy only).
	Colors []ColorMetrics `json:"colors,omitempty"`
	// Workers holds per-worker utilization (parallel strategies only).
	Workers []WorkerMetrics `json:"workers,omitempty"`
	// Rebuilds counts neighbor-list (re)builds.
	Rebuilds uint64 `json:"rebuilds"`
	// Faults, Rollbacks and Checkpoints count guard-supervisor events
	// (always 0 for an unguarded Simulation).
	Faults      uint64 `json:"faults"`
	Rollbacks   uint64 `json:"rollbacks"`
	Checkpoints uint64 `json:"checkpoints"`
}

// PhaseSeconds returns Density+Embed+Force — the instrumented share of
// the measured force time.
func (m Metrics) PhaseSeconds() float64 {
	return m.Density.Seconds + m.Embed.Seconds + m.Force.Seconds
}

func fromTelemetry(t telemetry.Metrics) Metrics {
	m := Metrics{
		UptimeSeconds: t.UptimeSeconds,
		Density:       PhaseMetrics(t.Density),
		Embed:         PhaseMetrics(t.Embed),
		Force:         PhaseMetrics(t.Force),
		Rebuilds:      t.Rebuilds,
		Faults:        t.Faults,
		Rollbacks:     t.Rollbacks,
		Checkpoints:   t.Checkpoints,
	}
	for _, c := range t.Colors {
		m.Colors = append(m.Colors, ColorMetrics(c))
	}
	for _, w := range t.Workers {
		m.Workers = append(m.Workers, WorkerMetrics(w))
	}
	return m
}

// MetricsServer is a running metrics HTTP listener: Prometheus text (or
// JSON with ?format=json) at /metrics, and the standard pprof handlers
// under /debug/pprof/. Close it when done.
type MetricsServer struct {
	srv *telemetry.Server
}

// Addr returns the listener's bound address (useful with ":0").
func (s *MetricsServer) Addr() string { return s.srv.Addr() }

// Close shuts the listener down and reports the first serve error.
func (s *MetricsServer) Close() error { return s.srv.Close() }

// MetricsStream periodically appends one JSON metrics snapshot per line
// to a writer. Close stops the ticker and flushes a final record.
type MetricsStream struct {
	str *telemetry.Streamer
}

// Close stops the stream, emits a final snapshot, and reports the first
// write error.
func (s *MetricsStream) Close() error { return s.str.Close() }

func errNoTelemetry() error {
	return fmt.Errorf("sdcmd: telemetry is disabled (set SimOptions.Telemetry)")
}

// recorder gives Simulation and GuardedSimulation their one set of
// Metrics, ServeMetrics and StreamMetrics methods over the run's
// telemetry recorder (nil when SimOptions.Telemetry is off).
type recorder struct {
	tel *telemetry.Recorder
}

// Metrics snapshots the run's telemetry; the zero Metrics when
// telemetry is disabled. A guarded run's recorder survives rollbacks
// (the supervisor rebuilds simulators from the same configuration), so
// its fault, rollback and checkpoint counters keep accumulating across
// recoveries.
func (r recorder) Metrics() Metrics { return fromTelemetry(r.tel.Snapshot()) }

// ServeMetrics starts an HTTP listener on addr (e.g. ":9090" or
// "127.0.0.1:0") exposing /metrics and /debug/pprof/.
func (r recorder) ServeMetrics(addr string) (*MetricsServer, error) {
	if r.tel == nil {
		return nil, errNoTelemetry()
	}
	srv, err := telemetry.Serve(addr, r.tel.Snapshot)
	if err != nil {
		return nil, err
	}
	return &MetricsServer{srv: srv}, nil
}

// StreamMetrics appends one JSON metrics record per line to w every
// interval until the returned stream is closed.
func (r recorder) StreamMetrics(w io.Writer, every time.Duration) (*MetricsStream, error) {
	if r.tel == nil {
		return nil, errNoTelemetry()
	}
	str, err := telemetry.StartStream(w, every, r.tel.Snapshot)
	if err != nil {
		return nil, err
	}
	return &MetricsStream{str: str}, nil
}
