// Command mdrun runs a bcc-iron EAM molecular-dynamics simulation with
// a selectable reduction strategy, printing thermodynamic diagnostics
// and optionally writing XYZ frames and a restart checkpoint.
//
// Examples:
//
//	mdrun -cells 10 -steps 200 -temp 300 -strategy sdc -threads 4
//	mdrun -cells 8 -steps 100 -xyz traj.xyz -every 10
//	mdrun -cells 8 -steps 50 -checkpoint state.sdck
//	mdrun -restore state.sdck -steps 50
//
// With -guard (implied by -checkpoint-every and -resume) the run is
// supervised: invariants are checked as it goes, faults roll back to
// the last good snapshot under a degradation ladder, and checkpoints
// are written atomically so an interrupted run resumes bit-for-bit:
//
//	mdrun -cells 8 -steps 1000 -checkpoint state.sdck -checkpoint-every 100
//	mdrun -resume -checkpoint state.sdck -steps 2000   # continue to step 2000
//
// With -metrics-addr the run exposes live per-phase telemetry
// (Prometheus text on /metrics, JSON via ?format=json, pprof under
// /debug/pprof/) and prints a phase/worker summary at exit;
// -metrics-log streams periodic JSONL snapshots to a file:
//
//	mdrun -cells 10 -steps 2000 -strategy sdc -threads 4 \
//	    -metrics-addr :9090 -metrics-log metrics.jsonl -metrics-every 2s
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"sdcmd"
	"sdcmd/internal/md"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		_, _ = fmt.Fprintln(os.Stderr, "mdrun:", err)
		os.Exit(1)
	}
}

// closeKeep closes f and, when the surrounding function is otherwise
// succeeding, promotes the close error — data written to f may not have
// reached the disk.
func closeKeep(f *os.File, retErr *error) {
	if cerr := f.Close(); cerr != nil && *retErr == nil {
		*retErr = cerr
	}
}

// interruptedErr renders the cancellation outcome: the run context was
// canceled by SIGINT/SIGTERM, everything that buffers (metrics stream,
// thermo log, checkpoint) has been flushed by the time run returns, and
// the process exits nonzero so callers can tell a cut-short run from a
// completed one.
func interruptedErr(step int, flushed string) error {
	return fmt.Errorf("interrupted by signal at step %d (%s flushed); exiting nonzero", step, flushed)
}

func run(args []string) (retErr error) {
	// SIGINT/SIGTERM cancel the run context: the integrator stops at the
	// next step boundary, the deferred shutdowns flush the JSONL metrics
	// stream and close files, and a final checkpoint is written where
	// one was requested. A second signal kills the process the default
	// way (NotifyContext unregisters after the first).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	d := md.DefaultJob()
	fs := flag.NewFlagSet("mdrun", flag.ContinueOnError)
	cells := fs.Int("cells", d.Cells, "bcc supercells per side (atoms = 2*cells^3)")
	steps := fs.Int("steps", 100, "timesteps to run")
	temp := fs.Float64("temp", d.Temperature, "initial temperature (K)")
	strat := fs.String("strategy", d.Strategy, "reduction strategy: serial|sdc|cs|atomic|sap|rc")
	threads := fs.Int("threads", d.Threads, "worker threads for parallel strategies")
	dim := fs.Int("dim", d.Dim, "SDC decomposition dimensionality (1-3)")
	dt := fs.Float64("dt", d.Dt, "timestep (ps)")
	seed := fs.Int64("seed", d.Seed, "random seed")
	johnson := fs.Bool("johnson", false, "use Johnson universal embedding")
	thermostat := fs.Float64("thermostat", 0, "Berendsen target temperature (K), 0 = NVE")
	jitter := fs.Float64("jitter", 0, "initial lattice jitter amplitude (Å)")
	every := fs.Int("every", 10, "report (and frame-write) interval in steps")
	xyzPath := fs.String("xyz", "", "append XYZ frames to this file")
	ckptPath := fs.String("checkpoint", "", "write a final binary checkpoint here")
	restorePath := fs.String("restore", "", "resume from a checkpoint instead of building a lattice")
	logPath := fs.String("log", "", "write a CSV thermodynamics log here")
	guardOn := fs.Bool("guard", false, "run under the fault-tolerant supervisor")
	ckptEvery := fs.Int("checkpoint-every", 0, "atomic checkpoint interval in steps (implies -guard, needs -checkpoint)")
	resume := fs.Bool("resume", false, "resume a guarded run from -checkpoint; -steps is the absolute target")
	maxRetries := fs.Int("max-retries", 0, "supervisor rollback budget (0 = default 3)")
	checkEvery := fs.Int("check-every", 0, "supervisor invariant-check interval in steps (0 = default 10)")
	deadline := fs.Duration("deadline", 0, "watchdog deadline per supervised step chunk (0 = off)")
	guardLog := fs.String("guard-log", "", "stream supervisor events as JSON lines to this file")
	metricsAddr := fs.String("metrics-addr", "", "serve Prometheus /metrics and /debug/pprof/ on this address (e.g. :9090)")
	metricsLog := fs.String("metrics-log", "", "stream periodic JSON metrics snapshots to this file")
	metricsEvery := fs.Duration("metrics-every", time.Second, "snapshot interval for -metrics-log")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *steps < 0 || *every < 1 {
		return fmt.Errorf("steps must be >= 0 and every >= 1")
	}
	metrics := metricsArgs{addr: *metricsAddr, logPath: *metricsLog, every: *metricsEvery}
	simOpts := sdcmd.SimOptions{
		Cells:            *cells,
		Temperature:      *temp,
		Seed:             *seed,
		Strategy:         *strat,
		Threads:          *threads,
		Dim:              *dim,
		Dt:               *dt,
		Johnson:          *johnson,
		ThermostatTarget: *thermostat,
		Jitter:           *jitter,
		Telemetry:        metrics.enabled(),
	}
	if *guardOn || *ckptEvery > 0 || *resume {
		return runGuarded(ctx, sdcmd.GuardOptions{
			SimOptions:      simOpts,
			CheckEvery:      *checkEvery,
			MaxRetries:      *maxRetries,
			CheckpointPath:  *ckptPath,
			CheckpointEvery: *ckptEvery,
			StepDeadline:    *deadline,
		}, guardedArgs{
			steps: *steps, every: *every, xyzPath: *xyzPath, logPath: *logPath,
			resume: *resume, guardLog: *guardLog, restorePath: *restorePath,
			metrics: metrics,
		})
	}

	var sim *sdcmd.Simulation
	if *restorePath != "" {
		f, err := os.Open(*restorePath)
		if err != nil {
			return err
		}
		sim, err = sdcmd.RestoreSimulation(f, simOpts)
		_ = f.Close() // read-only: close errors carry no data loss
		if err != nil {
			return err
		}
		fmt.Printf("restored from %s\n", *restorePath)
	} else {
		var err error
		sim, err = sdcmd.NewSimulation(simOpts)
		if err != nil {
			return err
		}
	}
	defer sim.Close()

	if metrics.enabled() {
		shutdown, err := startMetrics(metrics, sim, &retErr)
		if err != nil {
			return err
		}
		defer shutdown()
	}

	if *logPath != "" {
		f, err := os.Create(*logPath)
		if err != nil {
			return err
		}
		defer closeKeep(f, &retErr)
		if err := sim.StartThermoLog(f); err != nil {
			return err
		}
	}

	var xyzFile *os.File
	if *xyzPath != "" {
		f, err := os.Create(*xyzPath)
		if err != nil {
			return err
		}
		xyzFile = f
		defer closeKeep(xyzFile, &retErr)
	}

	fmt.Printf("mdrun: %d atoms, strategy=%s threads=%d dt=%g ps\n", sim.N(), *strat, *threads, *dt)
	report := func() error {
		fmt.Printf("step %6d  T=%8.2f K  KE=%12.4f eV  PE=%14.4f eV  E=%14.4f eV\n",
			sim.StepCount(), sim.Temperature(), sim.KineticEnergy(), sim.PotentialEnergy(), sim.TotalEnergy())
		if *logPath != "" {
			return sim.LogThermo()
		}
		return nil
	}
	if err := report(); err != nil {
		return err
	}
	interrupted := false
	for done := 0; done < *steps && !interrupted; {
		chunk := *every
		if done+chunk > *steps {
			chunk = *steps - done
		}
		if err := sim.RunContext(ctx, chunk); err != nil {
			if !errors.Is(err, sdcmd.ErrCanceled) {
				return err
			}
			// Fall through: report, checkpoint and flush the partial
			// run, then exit nonzero below.
			interrupted = true
		}
		done = sim.StepCount()
		if err := report(); err != nil {
			return err
		}
		if xyzFile != nil {
			if err := sim.WriteXYZ(xyzFile, fmt.Sprintf("step %d", sim.StepCount())); err != nil {
				return err
			}
		}
	}
	if *ckptPath != "" {
		f, err := os.Create(*ckptPath)
		if err != nil {
			return err
		}
		defer closeKeep(f, &retErr)
		if err := sim.WriteCheckpoint(f); err != nil {
			return err
		}
		fmt.Printf("checkpoint written to %s\n", *ckptPath)
	}
	if metrics.enabled() {
		printPhaseSummary(sim.Metrics())
	}
	if interrupted {
		return interruptedErr(sim.StepCount(), "logs, metrics and checkpoint")
	}
	return nil
}
