package md

import (
	"context"
	"errors"
	"testing"
	"time"

	"sdcmd/internal/lattice"
)

func cancelTestSystem(t *testing.T) *System {
	t.Helper()
	cfg, err := lattice.Build(lattice.BCC, 3, 3, 3, lattice.FeLatticeConstant)
	if err != nil {
		t.Fatal(err)
	}
	sys := FromLattice(cfg)
	if err := sys.InitVelocities(150, 11); err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestStepCtxPreCanceledStopsBeforeFirstStep(t *testing.T) {
	sim, err := NewSimulator(cancelTestSystem(t), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err = sim.StepCtx(ctx, 10)
	if err == nil {
		t.Fatal("canceled context ran to completion")
	}
	if !errors.Is(err, ErrCanceled) {
		t.Errorf("error %v does not wrap ErrCanceled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error %v does not wrap context.Canceled", err)
	}
	if sim.StepCount() != 0 {
		t.Errorf("pre-canceled run advanced %d steps", sim.StepCount())
	}
}

func TestStepCtxCancelMidRunStopsAtBoundary(t *testing.T) {
	sim, err := NewSimulator(cancelTestSystem(t), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	const huge = 10_000_000
	err = sim.StepCtx(ctx, huge)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("mid-run cancel returned %v, want ErrCanceled", err)
	}
	n := sim.StepCount()
	if n <= 0 || n >= huge {
		t.Errorf("step count %d after cancel, want 0 < n < %d", n, huge)
	}
	// The state must be the consistent end of a completed step: forces
	// finite and a further (uncanceled) step possible.
	for i, f := range sim.Sys.Force {
		if !f.IsFinite() {
			t.Fatalf("non-finite force on atom %d after cancel", i)
		}
	}
	if err := sim.Step(1); err != nil {
		t.Errorf("stepping after a canceled run failed: %v", err)
	}
	if sim.StepCount() != n+1 {
		t.Errorf("step count %d after resume, want %d", sim.StepCount(), n+1)
	}
}

func TestStepCtxDeadlineWrapsErrCanceled(t *testing.T) {
	sim, err := NewSimulator(cancelTestSystem(t), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	err = sim.StepCtx(ctx, 10_000_000)
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("deadline error %v, want ErrCanceled wrapping DeadlineExceeded", err)
	}
}
