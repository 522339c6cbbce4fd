package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"path/filepath"
	"testing"

	"sdcmd"
	"sdcmd/internal/md"
	"sdcmd/internal/vec"
	"sdcmd/internal/xyz"
)

// TestJobSpecEncodingPinned pins the normalized JSON and the store key
// of three specs to the values the service has always produced: a
// moved field, a renamed JSON tag or a changed default would orphan
// every stored result and drain manifest. A fourth spec sets a negative
// thermostat target, which runs no thermostat: it must share the first
// spec's bytes and key.
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
		{
			JobSpec{Steps: 1, Thermostat: -5},
			`{"potential":"eam-fs","cells":8,"temperature":300,"seed":1,"strategy":"serial","threads":1,"dim":2,"dt":0.001,"skin":0.5,"steps":1}`,
			"a6cfff3dbbabcb388f5ad1fed535c628848c4b2814d79cbeebcd2d8e4a592b9b",
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

// FuzzJobSpecNormalize decodes arbitrary bytes the way POST /jobs does
// and normalizes them under a small CPU budget and shard count. Every
// admitted spec must be a fixed point of normalization, state "no
// thermostat" one way only (target and time constant both 0), keep its
// store key through its own JSON encoding, and map to an md.Config
// that NewSimulator accepts; nothing may panic.
func FuzzJobSpecNormalize(f *testing.F) {
	for _, body := range []string{
		`{"steps":1}`,
		`{"cells":10,"temperature":600,"seed":7,"strategy":"sdc","threads":4,"dim":3,"dt":0.0005,"skin":0.3,"steps":200,"jitter":0.02}`,
		`{"potential":"eam-johnson","cells":6,"steps":50,"thermostat":900}`,
		`{"cells":121,"steps":1}`,
		`{"steps":1,"thermostat":-5,"thermostat_tau":0.2}`,
	} {
		f.Add([]byte(body), uint8(4), uint8(2))
	}
	f.Fuzz(func(t *testing.T, body []byte, cpu, shards uint8) {
		c, n := int(cpu%17), int(shards%9)
		var spec JobSpec
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if dec.Decode(&spec) != nil {
			return
		}
		norm, err := spec.normalized(c, n)
		if err != nil {
			return
		}
		again, err := norm.normalized(c, n)
		if err != nil || again != norm {
			t.Fatalf("normalizing %+v again gives %+v, %v", norm, again, err)
		}
		if norm.Thermostat < 0 || (norm.ThermostatTau == 0) != (norm.Thermostat == 0) {
			t.Fatalf("%+v states its thermostat two ways", norm)
		}
		h, err := norm.hash()
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(norm)
		if err != nil {
			t.Fatal(err)
		}
		var stored JobSpec
		if err := json.Unmarshal(b, &stored); err != nil {
			t.Fatalf("normalized spec %s does not decode: %v", b, err)
		}
		if h2, err := stored.hash(); err != nil || h2 != h {
			t.Fatalf("%s hashes to %s after a round trip, %s before (%v)", b, h2, h, err)
		}
		cfg, err := norm.mdConfig(nil)
		if err != nil {
			t.Fatalf("admitted spec %+v has no md.Config: %v", norm, err)
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("admitted spec %+v maps to an invalid md.Config: %v", norm, err)
		}
	})
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
	if b := cfg.Thermostat; b == nil || *b != (md.Berendsen{Target: opts.ThermostatTarget, Tau: md.DefaultThermostatTau}) {
		t.Errorf("thermostat %+v, want Berendsen at %g K with the default time constant", cfg.Thermostat, opts.ThermostatTarget)
	}
	sys, err := norm.job().System()
	if err != nil {
		t.Fatal(err)
	}

	opts.CheckpointPath = filepath.Join(t.TempDir(), "facade.sdck")
	sim, err := sdcmd.NewSimulation(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	sameState := func(when string) {
		t.Helper()
		if err := sim.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		snap, err := xyz.ReadCheckpointFile(opts.CheckpointPath)
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
