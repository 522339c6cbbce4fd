package sdcmd

import (
	"bytes"
	"math"
	"path/filepath"
	"strings"
	"testing"
)

func TestNewSimulationDefaults(t *testing.T) {
	sim, err := NewSimulation(SimOptions{Cells: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	if sim.N() != 128 {
		t.Errorf("N = %d, want 128", sim.N())
	}
	if math.Abs(sim.Temperature()-300) > 1e-6 {
		t.Errorf("T = %g", sim.Temperature())
	}
	if err := sim.Run(5); err != nil {
		t.Fatal(err)
	}
	if sim.StepCount() != 5 {
		t.Errorf("StepCount = %d", sim.StepCount())
	}
}

func TestNewSimulationValidation(t *testing.T) {
	bad := []SimOptions{
		{Cells: -1},
		{Cells: 4, Strategy: "warp-drive"},
		{Cells: 4, Dim: 5},
		{Cells: 4, Dt: -1},
		{Cells: 4, Skin: -1},
	}
	for i, o := range bad {
		if _, err := NewSimulation(o); err == nil {
			t.Errorf("options %d accepted", i)
		}
	}
}

func TestSimulationEnergyAccessors(t *testing.T) {
	sim, err := NewSimulation(SimOptions{Cells: 4, Temperature: 100, Jitter: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	ke := sim.KineticEnergy()
	pe := sim.PotentialEnergy()
	if ke <= 0 {
		t.Errorf("KE = %g", ke)
	}
	if pe >= 0 {
		t.Errorf("PE = %g, want cohesive (negative)", pe)
	}
	if tot := sim.TotalEnergy(); math.Abs(tot-(ke+pe)) > 1e-9 {
		t.Errorf("TotalEnergy %g != KE+PE %g", tot, ke+pe)
	}
}

func TestSimulationSDCParallel(t *testing.T) {
	sim, err := NewSimulation(SimOptions{Cells: 6, Strategy: "sdc", Threads: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	e0 := sim.TotalEnergy()
	if err := sim.Run(30); err != nil {
		t.Fatal(err)
	}
	e1 := sim.TotalEnergy()
	if math.Abs(e1-e0)/math.Abs(e0) > 1e-4 {
		t.Errorf("parallel NVE drift: %g -> %g", e0, e1)
	}
}

func TestSimulationThermostat(t *testing.T) {
	sim, err := NewSimulation(SimOptions{Cells: 4, Temperature: 50, ThermostatTarget: 200})
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	if err := sim.Run(200); err != nil {
		t.Fatal(err)
	}
	if got := sim.Temperature(); math.Abs(got-200) > 60 {
		t.Errorf("thermostatted T = %g, want ≈200", got)
	}
}

func TestSimulationJohnsonEmbedding(t *testing.T) {
	sim, err := NewSimulation(SimOptions{Cells: 4, Johnson: true})
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	if err := sim.Run(3); err != nil {
		t.Fatal(err)
	}
}

func TestSimulationStrainAndIO(t *testing.T) {
	sim, err := NewSimulation(SimOptions{Cells: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	pe0 := sim.PotentialEnergy()
	if err := sim.ApplyStrain(0.02, 0, 0); err != nil {
		t.Fatal(err)
	}
	if sim.PotentialEnergy() <= pe0 {
		t.Error("strain did not raise potential energy")
	}
	var x bytes.Buffer
	if err := sim.WriteXYZ(&x, "frame"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(x.String(), "Fe") {
		t.Error("XYZ output missing element")
	}
	var c bytes.Buffer
	if err := sim.WriteCheckpoint(&c); err != nil {
		t.Fatal(err)
	}
	if c.Len() == 0 {
		t.Error("empty checkpoint")
	}
}

func TestRunExperimentFacade(t *testing.T) {
	var buf bytes.Buffer
	if err := RunExperiment("table1", ExperimentOptions{Out: &buf}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "TABLE 1") {
		t.Error("table1 output wrong")
	}
	buf.Reset()
	if err := RunExperiment("fig9", ExperimentOptions{Out: &buf, Threads: []int{2, 16}}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "FIG 9") {
		t.Error("fig9 output wrong")
	}
	buf.Reset()
	if err := RunExperiment("reorder", ExperimentOptions{Out: &buf, MeasuredCells: 6, MeasuredSteps: 1}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "reordering") {
		t.Error("reorder output wrong")
	}
	buf.Reset()
	if err := RunExperiment("table1", ExperimentOptions{Out: &buf, CSV: true, Threads: []int{2}}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "experiment,case,series") {
		t.Error("CSV output wrong")
	}
	if err := RunExperiment("bogus", ExperimentOptions{Out: &buf}); err == nil {
		t.Error("unknown experiment accepted")
	}
	if err := RunExperiment("table1", ExperimentOptions{}); err == nil {
		t.Error("missing Out accepted")
	}
	if err := RunExperiment("table1", ExperimentOptions{Out: &buf, Mode: "bogus"}); err == nil {
		t.Error("bad mode accepted")
	}
}

func TestStrategiesList(t *testing.T) {
	got := Strategies()
	if len(got) != 6 {
		t.Fatalf("Strategies = %v", got)
	}
	want := map[string]bool{"serial": true, "sdc": true, "cs": true, "atomic": true, "sap": true, "rc": true}
	for _, s := range got {
		if !want[s] {
			t.Errorf("unexpected strategy %q", s)
		}
	}
}

func TestRestoreSimulation(t *testing.T) {
	sim, err := NewSimulation(SimOptions{Cells: 6, Temperature: 150})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(10); err != nil {
		t.Fatal(err)
	}
	var ckpt bytes.Buffer
	if err := sim.WriteCheckpoint(&ckpt); err != nil {
		t.Fatal(err)
	}
	eMid := sim.TotalEnergy()
	sim.Close()

	restored, err := RestoreSimulation(bytes.NewReader(ckpt.Bytes()), SimOptions{Strategy: "sdc", Threads: 2, Dim: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	if restored.N() != 432 {
		t.Errorf("restored N = %d", restored.N())
	}
	if math.Abs(restored.TotalEnergy()-eMid) > 1e-6*math.Abs(eMid) {
		t.Errorf("restored E = %g, want %g", restored.TotalEnergy(), eMid)
	}
	if err := restored.Run(5); err != nil {
		t.Fatal(err)
	}

	// Error paths.
	if _, err := RestoreSimulation(strings.NewReader("garbage"), SimOptions{}); err == nil {
		t.Error("garbage checkpoint accepted")
	}
	if _, err := RestoreSimulation(bytes.NewReader(ckpt.Bytes()), SimOptions{Strategy: "nope"}); err == nil {
		t.Error("bad strategy accepted on restore")
	}
	if _, err := RestoreSimulation(bytes.NewReader(ckpt.Bytes()), SimOptions{Dim: 9}); err == nil {
		t.Error("bad dim accepted on restore")
	}
	// Johnson + thermostat path.
	r2, err := RestoreSimulation(bytes.NewReader(ckpt.Bytes()), SimOptions{Johnson: true, ThermostatTarget: 100})
	if err != nil {
		t.Fatal(err)
	}
	r2.Close()
}

func TestFacadeThermoLog(t *testing.T) {
	sim, err := NewSimulation(SimOptions{Cells: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	if err := sim.LogThermo(); err == nil {
		t.Error("LogThermo without StartThermoLog accepted")
	}
	var buf bytes.Buffer
	if err := sim.StartThermoLog(&buf); err != nil {
		t.Fatal(err)
	}
	if err := sim.LogThermo(); err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(5); err != nil {
		t.Fatal(err)
	}
	if err := sim.LogThermo(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "step,time_ps") {
		t.Error("thermo CSV header missing")
	}
	if len(strings.Split(strings.TrimSpace(buf.String()), "\n")) != 3 {
		t.Errorf("thermo CSV rows wrong:\n%s", buf.String())
	}
}

func TestGuardedSimulationFacade(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "g.sdck")
	sim, err := NewGuardedSimulation(GuardOptions{
		SimOptions:      SimOptions{Cells: 4, Temperature: 100},
		CheckEvery:      5,
		CheckpointPath:  ckpt,
		CheckpointEvery: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(10); err != nil {
		t.Fatal(err)
	}
	if sim.N() != 128 || sim.StepCount() != 10 || sim.Retries() != 0 {
		t.Errorf("N=%d steps=%d retries=%d", sim.N(), sim.StepCount(), sim.Retries())
	}
	if sim.TotalEnergy() != sim.KineticEnergy()+sim.PotentialEnergy() {
		t.Error("energy accessors inconsistent")
	}
	var buf bytes.Buffer
	if err := sim.WriteXYZ(&buf, "frame"); err != nil || buf.Len() == 0 {
		t.Errorf("WriteXYZ: %v", err)
	}
	events := sim.Events()
	if len(events) != 1 || events[0].Kind != "checkpoint" {
		t.Errorf("events %v, want one checkpoint", events)
	}
	if sim.StreamError() != nil {
		t.Error(sim.StreamError())
	}
	sim.Close()

	resumed, err := ResumeGuardedSimulation(ckpt, GuardOptions{
		CheckpointPath: ckpt,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer resumed.Close()
	if resumed.StepCount() != 10 {
		t.Errorf("resumed at step %d, want 10", resumed.StepCount())
	}
	if err := resumed.Run(5); err != nil {
		t.Fatal(err)
	}
	if err := resumed.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := ResumeGuardedSimulation(filepath.Join(dir, "nope.sdck"), GuardOptions{}); err == nil {
		t.Error("missing checkpoint accepted")
	}
}
