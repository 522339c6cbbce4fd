package md

import (
	"testing"
	"time"

	"sdcmd/internal/strategy"
	"sdcmd/internal/telemetry"
)

// TestTelemetryEndToEnd runs a short SDC simulation with a recorder
// attached and cross-checks the snapshot against the simulator's own
// accounting: the three phase timers must cover most of the measured
// step time, worker utilizations must be sane, and the rebuild counter
// must agree with Rebuilds().
func TestTelemetryEndToEnd(t *testing.T) {
	sys := feSystem(t, 6, 200)
	cfg := DefaultConfig()
	cfg.Strategy = strategy.SDC
	cfg.Threads = 2
	cfg.Telemetry = telemetry.NewRecorder()
	sim, err := NewSimulator(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	if sim.Telemetry() != cfg.Telemetry {
		t.Fatal("Telemetry() does not return the configured recorder")
	}
	before := cfg.Telemetry.Snapshot()
	start := time.Now()
	if err := sim.Step(20); err != nil {
		t.Fatal(err)
	}
	stepSec := time.Since(start).Seconds()

	m := cfg.Telemetry.Snapshot()
	phaseSec := m.PhaseSeconds() - before.PhaseSeconds()
	if phaseSec <= 0 {
		t.Fatal("no phase time recorded")
	}
	if phaseSec > stepSec {
		t.Errorf("phase sum %gs exceeds the enclosing Step(20) time %gs", phaseSec, stepSec)
	}
	// The three force phases dominate an EAM step; the rest is the
	// O(N) integrator loops, the skin check and occasional rebuilds.
	// Half is a deliberately loose floor to keep the test robust on
	// slow CI.
	if phaseSec < stepSec/2 {
		t.Errorf("phase sum %gs covers under half the Step(20) time %gs", phaseSec, stepSec)
	}
	// Every evaluation times all three phases.
	if m.Density.Calls != m.Embed.Calls || m.Embed.Calls != m.Force.Calls {
		t.Errorf("phase call counts diverge: %d/%d/%d", m.Density.Calls, m.Embed.Calls, m.Force.Calls)
	}
	if m.Density.Calls < 20 {
		t.Errorf("density calls = %d, want >= 20 (one per step)", m.Density.Calls)
	}

	if uint64(sim.Rebuilds()) != m.Rebuilds {
		t.Errorf("rebuild counter %d != Simulator.Rebuilds() %d", m.Rebuilds, sim.Rebuilds())
	}
	if m.Rebuilds < 1 {
		t.Error("no rebuilds recorded (the initial build must count)")
	}

	if len(m.Workers) != 2 {
		t.Fatalf("got %d worker stats, want 2", len(m.Workers))
	}
	for _, w := range m.Workers {
		if w.Utilization <= 0 || w.Utilization > 1 {
			t.Errorf("worker %d utilization %g outside (0, 1]", w.Worker, w.Utilization)
		}
	}

	if len(m.Colors) == 0 {
		t.Error("SDC run recorded no per-color sweep times")
	}
	var sweeps int64
	for _, c := range m.Colors {
		sweeps += c.Sweeps
	}
	// Two sweeps (scalar + vector) over all colors per evaluation.
	if sweeps == 0 {
		t.Error("no color sweeps recorded")
	}

	// Unguarded runs never touch the guard counters.
	if m.Faults != 0 || m.Rollbacks != 0 || m.Checkpoints != 0 {
		t.Errorf("guard counters moved in an unguarded run: %d/%d/%d", m.Faults, m.Rollbacks, m.Checkpoints)
	}
}

// TestTelemetrySerialHasNoWorkers pins that a serial run records phases
// but no pool workers and no colors.
func TestTelemetrySerialHasNoWorkers(t *testing.T) {
	sys := feSystem(t, 3, 100)
	cfg := DefaultConfig()
	cfg.Telemetry = telemetry.NewRecorder()
	sim, err := NewSimulator(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	if err := sim.Step(3); err != nil {
		t.Fatal(err)
	}
	m := cfg.Telemetry.Snapshot()
	if m.PhaseSeconds() <= 0 {
		t.Error("serial run recorded no phase time")
	}
	if len(m.Workers) != 0 || len(m.Colors) != 0 {
		t.Errorf("serial run recorded %d workers / %d colors", len(m.Workers), len(m.Colors))
	}
}

// TestNoTelemetryByDefault ensures the hot path stays uninstrumented
// unless a recorder is attached.
func TestNoTelemetryByDefault(t *testing.T) {
	sys := feSystem(t, 3, 100)
	sim, err := NewSimulator(sys, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	if err := sim.Step(2); err != nil {
		t.Fatal(err)
	}
	if sim.Telemetry() != nil {
		t.Error("default config carries a recorder")
	}
}
