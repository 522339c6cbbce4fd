package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"sdcmd"
	"sdcmd/internal/md"
	"sdcmd/internal/vec"
	"sdcmd/internal/xyz"
)

// TestJobSpecEncodingPinned pins the normalized JSON and the store key
// of three specs to the values the service has always produced: a
// moved field, a renamed JSON tag or a changed default would orphan
// every stored result and drain manifest.
func TestJobSpecEncodingPinned(t *testing.T) {
	for _, c := range []struct {
		spec       JobSpec
		json, hash string
	}{
		{
			JobSpec{Steps: 1},
			`{"potential":"eam-fs","cells":8,"temperature":300,"seed":1,"strategy":"serial","threads":1,"dim":2,"dt":0.001,"skin":0.5,"steps":1}`,
			"a6cfff3dbbabcb388f5ad1fed535c628848c4b2814d79cbeebcd2d8e4a592b9b",
		},
		{
			JobSpec{Cells: 10, Temperature: 600, Seed: 7, Strategy: "sdc", Threads: 4, Dim: 3, Dt: 5e-4, Skin: 0.3, Steps: 200, Jitter: 0.02},
			`{"potential":"eam-fs","cells":10,"temperature":600,"seed":7,"strategy":"sdc","threads":2,"dim":3,"dt":0.0005,"skin":0.3,"steps":200,"jitter":0.02}`,
			"4806709df4d3f98de67c492a45b7a9504aa3dd48ab2e0d6156d219ccc8f2981c",
		},
		{
			JobSpec{Potential: "eam-johnson", Cells: 6, Steps: 50, Thermostat: 900},
			`{"potential":"eam-johnson","cells":6,"temperature":300,"seed":1,"strategy":"serial","threads":1,"dim":2,"dt":0.001,"skin":0.5,"steps":50,"thermostat":900,"thermostat_tau":0.01}`,
			"e205394fdb0d46f3583e9e1b045e0ea95cde88ddbf0d8af72eb245a9fbb2624b",
		},
	} {
		norm, err := c.spec.normalized(4, 2)
		if err != nil {
			t.Fatalf("%+v: %v", c.spec, err)
		}
		b, err := json.Marshal(norm)
		if err != nil {
			t.Fatal(err)
		}
		if string(b) != c.json {
			t.Errorf("%+v normalizes to\n%s\nwant\n%s", c.spec, b, c.json)
		}
		h, err := norm.hash()
		if err != nil {
			t.Fatal(err)
		}
		if h != c.hash {
			t.Errorf("%+v hashes to %s, want %s", c.spec, h, c.hash)
		}
	}
}

// TestFacadeAndServiceBuildTheSameRun states one run through the sdcmd
// facade's SimOptions and through a JobSpec: both must map to the same
// md.Config values and the bit-identical initial lattice and
// velocities, and stay bit-identical over a few steps.
func TestFacadeAndServiceBuildTheSameRun(t *testing.T) {
	opts := sdcmd.SimOptions{
		Cells: 6, Temperature: 450, Seed: 9, Strategy: "sdc", Threads: 2, Dim: 1,
		Dt: 5e-4, Skin: 0.4, Johnson: true, ThermostatTarget: 500, Jitter: 0.03,
	}
	spec := JobSpec{
		Potential: "eam-johnson", Cells: 6, Temperature: 450, Seed: 9, Strategy: "sdc", Threads: 2, Dim: 1,
		Dt: 5e-4, Skin: 0.4, Steps: 5, Jitter: 0.03, Thermostat: 500,
	}
	norm, err := spec.normalized(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := norm.mdConfig(nil)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Pot.Name() != "eam/fe-johnson" {
		t.Errorf("potential %q is not the Johnson variant", cfg.Pot.Name())
	}
	if cfg.Strategy.String() != opts.Strategy || cfg.Threads != opts.Threads || int(cfg.Dim) != opts.Dim ||
		cfg.Dt != opts.Dt || cfg.Skin != opts.Skin {
		t.Errorf("service config %+v does not state the facade's run %+v", cfg, opts)
	}
	if b, ok := cfg.Thermostat.(*md.Berendsen); !ok || *b != (md.Berendsen{Target: opts.ThermostatTarget, Tau: md.DefaultThermostatTau}) {
		t.Errorf("thermostat %+v, want Berendsen at %g K with the default time constant", cfg.Thermostat, opts.ThermostatTarget)
	}
	sys, err := norm.job().System()
	if err != nil {
		t.Fatal(err)
	}

	sim, err := sdcmd.NewSimulation(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	sameState := func(when string) {
		t.Helper()
		var buf bytes.Buffer
		if err := sim.WriteCheckpoint(&buf); err != nil {
			t.Fatal(err)
		}
		snap, err := xyz.ReadCheckpoint(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if !sameBits(snap.Pos, sys.Pos) || !sameBits(snap.Vel, sys.Vel) {
			t.Errorf("%s: facade and service states differ", when)
		}
	}
	sameState("initial")

	run, err := md.NewSimulator(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer run.Close()
	if err := run.Step(spec.Steps); err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(spec.Steps); err != nil {
		t.Fatal(err)
	}
	sameState("after the run")
}

func sameBits(a, b []vec.Vec3) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		for k := 0; k < 3; k++ {
			if math.Float64bits(a[i][k]) != math.Float64bits(b[i][k]) {
				return false
			}
		}
	}
	return true
}
