package sdcmd

import (
	"bytes"
	"encoding/csv"
	"math"
	"os"
	"path/filepath"
	"strconv"
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
	ckpt := filepath.Join(t.TempDir(), "s.sdck")
	sim, err := NewSimulation(SimOptions{Cells: 4, CheckpointPath: ckpt})
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
	if err := sim.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(ckpt); err != nil || fi.Size() == 0 {
		t.Errorf("checkpoint missing or empty: %v", err)
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

// TestResumeSimulation resumes a checkpoint under other structural
// options than the run that wrote it: the state and the step count come
// from the file, the strategy, potential and thermostat from the
// options.
func TestResumeSimulation(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "r.sdck")
	sim, err := NewSimulation(SimOptions{Cells: 6, Temperature: 150, CheckpointPath: ckpt})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(10); err != nil {
		t.Fatal(err)
	}
	if err := sim.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	eMid := sim.TotalEnergy()
	sim.Close()

	resumed, err := ResumeSimulation(SimOptions{Strategy: "sdc", Threads: 2, Dim: 2, CheckpointPath: ckpt})
	if err != nil {
		t.Fatal(err)
	}
	defer resumed.Close()
	if resumed.N() != 432 || resumed.StepCount() != 10 {
		t.Errorf("resumed N = %d at step %d, want 432 at step 10", resumed.N(), resumed.StepCount())
	}
	if math.Abs(resumed.TotalEnergy()-eMid) > 1e-6*math.Abs(eMid) {
		t.Errorf("resumed E = %g, want %g", resumed.TotalEnergy(), eMid)
	}
	if err := resumed.Run(5); err != nil {
		t.Fatal(err)
	}
	if resumed.StepCount() != 15 {
		t.Errorf("StepCount %d after 5 more steps, want 15", resumed.StepCount())
	}

	// Error paths.
	garbage := filepath.Join(t.TempDir(), "garbage.sdck")
	if err := os.WriteFile(garbage, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	for name, o := range map[string]SimOptions{
		"no path":      {},
		"missing file": {CheckpointPath: filepath.Join(t.TempDir(), "nope.sdck")},
		"garbage":      {CheckpointPath: garbage},
		"bad strategy": {CheckpointPath: ckpt, Strategy: "nope"},
		"bad dim":      {CheckpointPath: ckpt, Dim: 9},
	} {
		if _, err := ResumeSimulation(o); err == nil {
			t.Errorf("%s accepted on resume", name)
		}
	}
	// Johnson + thermostat path.
	r2, err := ResumeSimulation(SimOptions{Johnson: true, ThermostatTarget: 100, CheckpointPath: ckpt})
	if err != nil {
		t.Fatal(err)
	}
	r2.Close()
}

// TestFacadeThermoLog checks the CSV thermo log: its header, one
// record per call at the absolute step, the NVE energy column, and a
// resumed run's records continuing the checkpoint's step count.
func TestFacadeThermoLog(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "t.sdck")
	sim, err := NewSimulation(SimOptions{Cells: 3, CheckpointPath: ckpt})
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	if err := sim.LogThermo(); err == nil {
		t.Error("LogThermo without StartThermoLog accepted")
	}
	if err := sim.StartThermoLog(nil); err == nil {
		t.Error("nil writer accepted")
	}
	var buf bytes.Buffer
	if err := sim.StartThermoLog(&buf); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 3; k++ {
		if err := sim.LogThermo(); err != nil {
			t.Fatal(err)
		}
		if k < 2 {
			if err := sim.Run(5); err != nil {
				t.Fatal(err)
			}
		}
	}
	recs, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 4 {
		t.Fatalf("thermo CSV has %d records, want the header and 3 rows:\n%s", len(recs), buf.String())
	}
	if strings.Join(recs[0], ",") != "step,time_ps,T_K,KE_eV,PE_eV,E_eV" {
		t.Errorf("header = %v", recs[0])
	}
	if recs[1][0] != "0" || recs[2][0] != "5" || recs[3][0] != "10" {
		t.Errorf("steps = %v %v %v", recs[1][0], recs[2][0], recs[3][0])
	}
	e0, err := strconv.ParseFloat(recs[1][5], 64)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := strconv.ParseFloat(recs[3][5], 64)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(e2-e0) > 1e-3*math.Abs(e0) {
		t.Errorf("logged NVE energy drifted: %g -> %g", e0, e2)
	}

	if err := sim.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	resumed, err := ResumeSimulation(SimOptions{CheckpointPath: ckpt})
	if err != nil {
		t.Fatal(err)
	}
	defer resumed.Close()
	var rbuf bytes.Buffer
	if err := resumed.StartThermoLog(&rbuf); err != nil {
		t.Fatal(err)
	}
	if err := resumed.LogThermo(); err != nil {
		t.Fatal(err)
	}
	if rows := strings.Split(strings.TrimSpace(rbuf.String()), "\n"); len(rows) != 2 || !strings.HasPrefix(rows[1], "10,") {
		t.Errorf("resumed thermo log %q, want its first record at step 10", rbuf.String())
	}
}

// TestSimulationCheckpointEvents runs the supervised facade with a
// checkpoint cadence: the event log records the checkpoint, and a
// resumed run continues the checkpoint's step count.
func TestSimulationCheckpointEvents(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "g.sdck")
	sim, err := NewSimulation(SimOptions{
		Cells: 4, Temperature: 100,
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

	resumed, err := ResumeSimulation(SimOptions{CheckpointPath: ckpt})
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
}

// TestSimulationFaultPolicy drives a timestep too large for the
// crystal: the default policy rolls back and halves Dt until the run
// completes, and a negative MaxRetries returns the first fault without
// rolling back.
func TestSimulationFaultPolicy(t *testing.T) {
	o := SimOptions{Cells: 4, Dt: 0.03}
	sim, err := NewSimulation(o)
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	if err := sim.Run(100); err != nil {
		t.Fatalf("default policy did not recover: %v", err)
	}
	if sim.Retries() == 0 || sim.StepCount() != 100 {
		t.Errorf("retries %d at step %d, want a rollback and step 100", sim.Retries(), sim.StepCount())
	}

	o.MaxRetries = -1
	fast, err := NewSimulation(o)
	if err != nil {
		t.Fatal(err)
	}
	defer fast.Close()
	if err := fast.Run(100); err == nil {
		t.Fatal("fail-fast run survived its fault")
	}
	var kinds []string
	for _, e := range fast.Events() {
		kinds = append(kinds, e.Kind)
	}
	if strings.Join(kinds, ",") != "fault,give-up" {
		t.Errorf("fail-fast events %v, want a fault and a give-up", kinds)
	}
}
