package main

import (
	"fmt"
	"os"
	"time"

	"sdcmd"
)

// metricsArgs carries the observability flags.
type metricsArgs struct {
	addr    string        // -metrics-addr: HTTP /metrics + pprof listener
	logPath string        // -metrics-log: JSONL snapshot stream target
	every   time.Duration // -metrics-every: stream interval
}

// enabled reports whether any observability sink was requested (and so
// whether the simulation should pay for a telemetry recorder).
func (m metricsArgs) enabled() bool { return m.addr != "" || m.logPath != "" }

// startMetrics brings up the HTTP listener and/or the JSONL stream and
// returns a shutdown function to defer; shutdown errors are promoted
// into retErr so a failed final flush fails the run.
func startMetrics(a metricsArgs, src *sdcmd.Simulation, retErr *error) (func(), error) {
	var (
		srv  *sdcmd.MetricsServer
		str  *sdcmd.MetricsStream
		file *os.File
	)
	shutdown := func() {
		if str != nil {
			if err := str.Close(); err != nil && *retErr == nil {
				*retErr = fmt.Errorf("metrics stream: %w", err)
			}
		}
		if file != nil {
			closeKeep(file, retErr)
		}
		if srv != nil {
			if err := srv.Close(); err != nil && *retErr == nil {
				*retErr = fmt.Errorf("metrics server: %w", err)
			}
		}
	}
	if a.addr != "" {
		s, err := src.ServeMetrics(a.addr)
		if err != nil {
			return nil, err
		}
		srv = s
		fmt.Printf("metrics: http://%s/metrics (pprof at /debug/pprof/)\n", s.Addr())
	}
	if a.logPath != "" {
		f, err := os.Create(a.logPath)
		if err != nil {
			shutdown()
			return nil, err
		}
		file = f
		every := a.every
		if every <= 0 {
			every = time.Second
		}
		st, err := src.StreamMetrics(f, every)
		if err != nil {
			shutdown()
			return nil, err
		}
		str = st
	}
	return shutdown, nil
}

// printPhaseSummary reports the per-phase decomposition (§III.A) and
// worker utilization at the end of a telemetry-enabled run.
func printPhaseSummary(m sdcmd.Metrics) {
	total := m.PhaseSeconds()
	if total <= 0 {
		return
	}
	share := func(p sdcmd.PhaseMetrics) float64 { return 100 * p.Seconds / total }
	fmt.Printf("phases: density %.3fs (%.1f%%)  embed %.3fs (%.1f%%)  force %.3fs (%.1f%%)  rebuilds %d\n",
		m.Density.Seconds, share(m.Density),
		m.Embed.Seconds, share(m.Embed),
		m.Force.Seconds, share(m.Force),
		m.Rebuilds)
	for _, w := range m.Workers {
		fmt.Printf("worker %2d: busy %8.3fs  wait %8.3fs  utilization %5.1f%%\n",
			w.Worker, w.BusySeconds, w.WaitSeconds, 100*w.Utilization)
	}
}
