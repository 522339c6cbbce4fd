package main

import (
	"context"
	"errors"
	"fmt"
	"os"

	"sdcmd"
)

// guardedArgs carries the supervised loop's own flags; the run and its
// supervisor policy arrive as one sdcmd.GuardOptions.
type guardedArgs struct {
	steps, every          int
	xyzPath, logPath      string
	resume                bool
	guardLog, restorePath string
	metrics               metricsArgs
}

// runGuarded drives a simulation under the fault-tolerant supervisor.
// With -resume, -steps is the absolute step target: the run continues
// from the checkpoint's step up to it, bit-for-bit identical to a run
// that was never interrupted. A canceled ctx (SIGINT/SIGTERM) stops the
// run within one MD step, writes a final checkpoint where one was
// configured, flushes the event/metrics sinks and exits nonzero.
func runGuarded(ctx context.Context, opts sdcmd.GuardOptions, a guardedArgs) (retErr error) {
	if a.restorePath != "" {
		return fmt.Errorf("-restore is the unguarded resume; with -guard use -resume -checkpoint <path>")
	}
	if opts.CheckpointEvery > 0 && opts.CheckpointPath == "" {
		return fmt.Errorf("-checkpoint-every needs -checkpoint <path>")
	}
	if a.resume && opts.CheckpointPath == "" {
		return fmt.Errorf("-resume needs -checkpoint <path>")
	}
	if a.logPath != "" {
		return fmt.Errorf("-log is not supported under -guard (use -guard-log for the event stream)")
	}

	if a.guardLog != "" {
		f, err := os.Create(a.guardLog)
		if err != nil {
			return err
		}
		defer closeKeep(f, &retErr)
		opts.EventWriter = f
	}

	var sim *sdcmd.GuardedSimulation
	var err error
	if a.resume {
		sim, err = sdcmd.ResumeGuardedSimulation(opts.CheckpointPath, opts)
		if err != nil {
			return err
		}
		fmt.Printf("resumed from %s at step %d\n", opts.CheckpointPath, sim.StepCount())
	} else if sim, err = sdcmd.NewGuardedSimulation(opts); err != nil {
		return err
	}
	defer sim.Close()

	if a.metrics.enabled() {
		shutdown, err := startMetrics(a.metrics, sim, &retErr)
		if err != nil {
			return err
		}
		defer shutdown()
	}

	var xyzFile *os.File
	if a.xyzPath != "" {
		f, err := os.Create(a.xyzPath)
		if err != nil {
			return err
		}
		xyzFile = f
		defer closeKeep(xyzFile, &retErr)
	}

	fmt.Printf("mdrun: %d atoms, strategy=%s threads=%d dt=%g ps (guarded)\n",
		sim.N(), opts.Strategy, opts.Threads, opts.Dt)
	report := func() error {
		fmt.Printf("step %6d  T=%8.2f K  KE=%12.4f eV  PE=%14.4f eV  E=%14.4f eV\n",
			sim.StepCount(), sim.Temperature(), sim.KineticEnergy(), sim.PotentialEnergy(), sim.TotalEnergy())
		if xyzFile != nil {
			return sim.WriteXYZ(xyzFile, fmt.Sprintf("step %d", sim.StepCount()))
		}
		return nil
	}
	if err := report(); err != nil {
		return err
	}
	// -steps is absolute; a fresh run starts at 0, a resumed one at the
	// checkpoint step, so the remaining work is the difference.
	interrupted := false
	for sim.StepCount() < a.steps && !interrupted {
		chunk := a.every
		if left := a.steps - sim.StepCount(); chunk > left {
			chunk = left
		}
		if err := sim.RunContext(ctx, chunk); err != nil {
			if !errors.Is(err, sdcmd.ErrCanceled) {
				return err
			}
			interrupted = true
		}
		if err := report(); err != nil {
			return err
		}
	}
	if opts.CheckpointPath != "" {
		if err := sim.Checkpoint(); err != nil {
			return err
		}
		fmt.Printf("checkpoint written to %s\n", opts.CheckpointPath)
	}
	if r := sim.Retries(); r > 0 {
		fmt.Printf("recovered from %d fault(s); event log:\n", r)
		for _, ev := range sim.Events() {
			fmt.Printf("  step %6d  %-16s %s\n", ev.Step, ev.Kind, ev.Detail)
		}
	}
	if err := sim.StreamError(); err != nil {
		return fmt.Errorf("guard event stream: %w", err)
	}
	if a.metrics.enabled() {
		printPhaseSummary(sim.Metrics())
	}
	if interrupted {
		return interruptedErr(sim.StepCount(), "events, metrics and checkpoint")
	}
	return nil
}
