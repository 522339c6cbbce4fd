// Command sdcbench regenerates the paper's evaluation artifacts:
//
//	sdcbench -experiment table1              # Table 1 (model mode)
//	sdcbench -experiment fig9                # Fig. 9 speedup curves
//	sdcbench -experiment reorder             # §II.D reordering gains
//	sdcbench -experiment load                # traffic-shaped load run -> BENCH_load.json
//	sdcbench -experiment all                 # everything, including load
//	sdcbench -experiment table1 -mode measured -cells 10 -steps 20
//
// Model mode (default) predicts the paper's 16-core Xeon E7320 testbed
// from measured workload statistics; measured mode times the real
// goroutine implementations on this host (see DESIGN.md §4). Measured
// tables also report the §III.A per-phase decomposition — the share of
// the instrumented force time spent in the density/embed/force phases —
// both as "phases d/e/f" rows and as density_share/embed_share/
// force_share CSV columns.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"sdcmd"
	"sdcmd/internal/harness"
	"sdcmd/internal/serve"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		_, _ = fmt.Fprintln(os.Stderr, "sdcbench:", err)
		os.Exit(1)
	}
}

// allExperiments is what -experiment all runs: harness's experiment
// table in render order, then the job-service load run. The usage
// string promises "everything" (the flag-coverage test in main_test.go
// pins the set).
var allExperiments = append(harness.ExperimentNames(), "load")

func run(args []string) error {
	d := harness.DefaultOptions()
	fs := flag.NewFlagSet("sdcbench", flag.ContinueOnError)
	exp := fs.String("experiment", "all", strings.Join(allExperiments, "|")+"|all")
	mode := fs.String("mode", "model", "model (predict paper testbed) | measured (time this host)")
	cells := fs.Int("cells", d.MeasuredCells, "measured mode: replica cells per side")
	steps := fs.Int("steps", d.MeasuredSteps, "measured mode: timed force evaluations")
	threads := fs.String("threads", "", "comma-separated thread counts (default 2,3,4,8,12,16)")
	csvOut := fs.Bool("csv", false, "emit machine-readable CSV instead of tables")
	check := fs.Bool("check", false, "verify all strategies with the dynamic write-set check first; measured sweeps run checked")
	loadClients := fs.Int("load-clients", 200, "load experiment: concurrent synthetic clients")
	loadDuration := fs.Duration("load-duration", 3*time.Second, "load experiment: how long clients keep submitting")
	loadOut := fs.String("load-out", "BENCH_load.json", "load experiment: machine-readable output file")
	loadBaseline := fs.String("load-baseline", "", "load experiment: committed baseline JSON to diff traffic rates against")
	loadTol := fs.Float64("load-tolerance", 0.25, "load experiment: absolute tolerance for the baseline rate diff")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var ts []int
	if *threads != "" {
		for _, part := range strings.Split(*threads, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				return fmt.Errorf("bad -threads entry %q: %w", part, err)
			}
			ts = append(ts, v)
		}
	}
	opts := sdcmd.ExperimentOptions{
		Mode:          *mode,
		Out:           os.Stdout,
		MeasuredCells: *cells,
		MeasuredSteps: *steps,
		Threads:       ts,
		CSV:           *csvOut,
		Check:         *check,
	}
	names := []string{*exp}
	if *exp == "all" {
		names = allExperiments
	}
	for i, name := range names {
		if i > 0 {
			fmt.Println()
		}
		var err error
		if name == "load" {
			err = runLoadBench(*loadClients, *loadDuration, *loadOut, *loadBaseline, *loadTol)
		} else {
			err = sdcmd.RunExperiment(name, opts)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// runLoadBench drives the traffic-shaped load harness — hundreds of
// concurrent clients mixing submit/poll/stream/cancel across two
// tenants — writes BENCH_load.json and, with -load-baseline, diffs the
// run's traffic rates against the committed trajectory.
func runLoadBench(clients int, duration time.Duration, out, baseline string, tol float64) error {
	res, err := serve.RunLoad(serve.LoadOptions{Clients: clients, Duration: duration})
	if err != nil {
		return fmt.Errorf("load bench: %w", err)
	}
	if err := res.Render(os.Stdout); err != nil {
		return err
	}
	f, err := os.Create(out)
	if err != nil {
		return fmt.Errorf("load bench: write %s: %w", out, err)
	}
	if err := res.WriteJSON(f); err != nil {
		_ = f.Close()
		return fmt.Errorf("load bench: write %s: %w", out, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("load bench: write %s: %w", out, err)
	}
	fmt.Printf("wrote %s\n", out)
	if baseline != "" {
		bf, err := os.Open(baseline)
		if err != nil {
			return fmt.Errorf("load bench: baseline: %w", err)
		}
		base, err := serve.ReadLoadResult(bf)
		_ = bf.Close()
		if err != nil {
			return err
		}
		if err := serve.CompareLoadBaseline(&res, base, tol); err != nil {
			return err
		}
		fmt.Printf("load rates within %.2f absolute of %s\n", tol, baseline)
	}
	return nil
}
