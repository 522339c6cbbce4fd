package sdcmd

import (
	"fmt"
	"io"
	"time"

	"sdcmd/internal/telemetry"
)

// Metrics is a snapshot of a simulation's telemetry: the paper's
// per-phase decomposition (§III.A), per-color and per-worker costs,
// and the structural and supervisor counters. All fields are zero when
// the simulation was built without SimOptions.Telemetry.
type Metrics = telemetry.Metrics

// PhaseMetrics reports one EAM phase timer (§II.C: density, embed,
// force).
type PhaseMetrics = telemetry.PhaseStat

// ColorMetrics reports one SDC color's accumulated sweep time.
type ColorMetrics = telemetry.ColorStat

// WorkerMetrics reports one pool worker's busy/wait split across
// parallel regions; Utilization is busy/(busy+wait).
type WorkerMetrics = telemetry.WorkerStat

// MetricsServer is a running metrics HTTP listener: Prometheus text (or
// JSON with ?format=json) at /metrics, and the standard pprof handlers
// under /debug/pprof/. Close it when done.
type MetricsServer = telemetry.Server

// MetricsStream periodically appends one JSON metrics snapshot per line
// to a writer. Close stops the ticker, flushes a final record and
// reports the first write error.
type MetricsStream = telemetry.Streamer

func errNoTelemetry() error {
	return fmt.Errorf("sdcmd: telemetry is disabled (set SimOptions.Telemetry)")
}

// tel returns the run's telemetry recorder, nil when SimOptions.Telemetry
// is off. The supervisor rebuilds its simulators from one configuration,
// so the recorder survives rollbacks and its fault, rollback and
// checkpoint counters keep accumulating across recoveries.
func (s *Simulation) tel() *telemetry.Recorder { return s.sup.Config().Telemetry }

// Metrics snapshots the run's telemetry; the zero Metrics when
// telemetry is disabled.
func (s *Simulation) Metrics() Metrics { return s.tel().Snapshot() }

// ServeMetrics starts an HTTP listener on addr (e.g. ":9090" or
// "127.0.0.1:0") exposing /metrics and /debug/pprof/.
func (s *Simulation) ServeMetrics(addr string) (*MetricsServer, error) {
	if s.tel() == nil {
		return nil, errNoTelemetry()
	}
	return telemetry.Serve(addr, s.tel().Snapshot)
}

// StreamMetrics appends one JSON metrics record per line to w every
// interval until the returned stream is closed.
func (s *Simulation) StreamMetrics(w io.Writer, every time.Duration) (*MetricsStream, error) {
	if s.tel() == nil {
		return nil, errNoTelemetry()
	}
	return telemetry.StartStream(w, every, s.tel().Snapshot)
}
