// Command bench is the repository's end-to-end benchmark: one workload
// per process, run at runtime.NumCPU() threads, timed from outside
// through the public functions of internal/md, force, strategy,
// neighbor, core, reorder, serve and store.
//
//	go run . --workload bulk-54k --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics
// are the end-to-end set; with --trace 1 they are the per-layer set, and
// the spans recorded around every layer call are written as Chrome
// trace-event JSON to --trace-file. Human-readable detail goes to
// standard error. See README.md for the workloads and every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	name string
	unit string
}

// endToEnd is what a user of the system sees, reported on every
// workload with tracing off. An "op" is one MD step on the MD workloads
// and one job submission on serve-mixed. The 90th percentile is a
// per-layer metric: on the steady MD workloads it tracks other load on
// the machine more than the program.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ms_per_op", "ms"},
	{"op_ms_p50", "ms"},
	{"max_rss_mb", "MB"},
}

// perLayer is reported on every workload by the traced run.
var perLayer = []metricDef{
	{"force.compute_ms", "ms"},
	{"force.density_ms", "ms"},
	{"force.embed_ms", "ms"},
	{"force.force_ms", "ms"},
	{"force.pack_ms", "ms"},
	{"force.pair_visits", "count"},
	{"force.ns_per_pair_visit", "ns"},
	{"md.step_ms", "ms"},
	{"md.step_ms_p90", "ms"},
	{"md.rebuild_ms", "ms"},
	{"md.other_ms", "ms"},
	{"md.unexplained_pct", "%"},
	{"neighbor.build_ms", "ms"},
	{"neighbor.skin_check_ms", "ms"},
	{"neighbor.rebuild_fraction", "ratio"},
	{"neighbor.pairs", "count"},
	{"neighbor.useful_pair_ratio", "ratio"},
	{"core.rebin_ms", "ms"},
	{"core.subdomain_atoms_max_over_mean", "ratio"},
	{"reorder.block_ms", "ms"},
	{"strategy.new_ms", "ms"},
	{"strategy.barrier_wait_ms", "ms"},
	{"strategy.imbalance", "ratio"},
	{"strategy.utilization", "ratio"},
	{"serve.job_ms_p90", "ms"},
	{"serve.submit_ms_p50", "ms"},
	{"serve.queue_wait_ms_p50", "ms"},
	{"serve.queue_wait_ms_p90", "ms"},
	{"serve.run_ms_p50", "ms"},
	{"serve.overhead_ms_p50", "ms"},
	{"serve.hit_ms_p50", "ms"},
	{"serve.cache_hits", "count"},
	{"store.put_ms_p50", "ms"},
	{"store.get_ms_p50", "ms"},
	{"store.entry_bytes", "bytes"},
	{"baseline.serial_ms_per_step", "ms"},
	{"baseline.speedup", "ratio"},
	{"perfmodel.speedup_predicted", "ratio"},
	{"telemetry.overhead_pct", "%"},
}

// workloads lists the benchmark's workloads in run order.
var workloads = []string{"bulk-54k", "hot-54k", "alloy-54k", "serve-mixed"}

// scale shrinks a run for the quick test; the zero value is the real
// benchmark, whose length is set by --seconds.
type scale struct {
	// cells replaces the 54k workloads' 30 bcc cells per side.
	cells int
	// steps, when > 0, times exactly this many MD steps.
	steps int
	// jobs, when > 0, submits exactly this many jobs.
	jobs int
}

// runConfig is one invocation.
type runConfig struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	traceFile string
	// workDir holds the service's temporary store directories.
	workDir string
	scale   scale
	log     io.Writer
}

// gate is one correctness check.
type gate struct {
	name   string
	ok     bool
	detail string
}

// report collects a run's outcome.
type report struct {
	attempted int
	failed    int
	gates     []gate
	metrics   map[string]float64
}

func newReport() *report { return &report{metrics: map[string]float64{}} }

// check records a gate; a failed gate also counts as a failed operation.
func (r *report) check(name string, ok bool, format string, args ...any) {
	r.gates = append(r.gates, gate{name: name, ok: ok, detail: fmt.Sprintf(format, args...)})
	r.attempted++
	if !ok {
		r.failed++
	}
}

func (r *report) correct() bool {
	for _, g := range r.gates {
		if !g.ok {
			return false
		}
	}
	return r.failed == 0
}

// run executes one workload.
func run(rc runConfig) (*report, error) {
	var tr *tracer
	if rc.trace {
		tr = newTracer()
	}
	var (
		rep *report
		err error
	)
	switch rc.workload {
	case "bulk-54k", "hot-54k", "alloy-54k":
		rep, err = runMDWorkload(rc, mdCaseFor(rc.workload, rc.scale), tr)
	case "serve-mixed":
		rep, err = runServeWorkload(rc, tr)
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", rc.workload, workloads)
	}
	if err != nil {
		return nil, err
	}
	if !rc.trace {
		rep.metrics["max_rss_mb"] = maxRSSMB()
		return rep, nil
	}
	tr.printSelfTimes(rc.log)
	if rc.traceFile != "" {
		if err := os.MkdirAll(filepath.Dir(rc.traceFile), 0o755); err != nil {
			return nil, fmt.Errorf("trace dir: %w", err)
		}
		if err := tr.writeChrome(rc.traceFile); err != nil {
			return nil, err
		}
		logf(rc.log, "trace: %d spans written to %s\n", tr.len(), rc.traceFile)
	}
	return rep, nil
}

// logf and logln write diagnostics. A failed write to them changes
// nothing the benchmark measures or reports on standard output.
func logf(w io.Writer, format string, args ...any) { _, _ = fmt.Fprintf(w, format, args...) }

func logln(w io.Writer, args ...any) { _, _ = fmt.Fprintln(w, args...) }

// maxRSSMB is the process's peak resident set size.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// result selects the declared metric set for the run's mode. A missing
// or non-finite metric is an error: the benchmark never prints a
// partial set as if it were complete.
func result(rep *report, trace bool) (resultOut, error) {
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	out := resultOut{Correct: rep.correct(), Attempted: rep.attempted, Failed: rep.failed,
		Metrics: make(map[string]metricOut, len(defs))}
	for _, d := range defs {
		v, ok := rep.metrics[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return out, fmt.Errorf("metric %s not measured (value %v)", d.name, v)
		}
		out.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
	}
	return out, nil
}

func main() {
	workload := flag.String("workload", "", "workload name: bulk-54k, hot-54k, alloy-54k or serve-mixed")
	seed := flag.Int64("seed", 1, "input seed: velocities, alloy species and job seeds derive from it")
	seconds := flag.Float64("seconds", 20, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 = traced run: per-layer metrics and a span file")
	traceFile := flag.String("trace-file", "", "span output (default .bench_build/trace-<workload>.json)")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		logln(os.Stderr, "bench: --trace must be 0 or 1")
		os.Exit(2)
	}
	if !(*seconds > 0) {
		logln(os.Stderr, "bench: --seconds must be positive")
		os.Exit(2)
	}
	rc := runConfig{
		workload:  *workload,
		seed:      *seed,
		seconds:   *seconds,
		trace:     *trace == 1,
		traceFile: *traceFile,
		workDir:   filepath.Join(".bench_build", "tmp"),
		log:       os.Stderr,
	}
	if rc.trace && rc.traceFile == "" {
		rc.traceFile = filepath.Join(".bench_build", "trace-"+rc.workload+".json")
	}
	logf(os.Stderr, "bench: workload %s seed %d, %d threads, %.0fs, trace %v\n",
		rc.workload, rc.seed, runtime.NumCPU(), rc.seconds, rc.trace)
	rep, err := run(rc)
	if err != nil {
		logln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	for _, g := range rep.gates {
		status := "ok  "
		if !g.ok {
			status = "FAIL"
		}
		logf(os.Stderr, "gate %s %-28s %s\n", status, g.name, g.detail)
	}
	out, err := result(rep, rc.trace)
	if err != nil {
		logln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	b, err := json.Marshal(out)
	if err != nil {
		logln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
	if !out.Correct {
		logln(os.Stderr, "bench: correctness gates failed")
		os.Exit(1)
	}
}
