package xyz

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sdcmd/internal/lattice"
	"sdcmd/internal/md"
	"sdcmd/internal/vec"
)

func sampleSnapshot(t *testing.T, withVel bool) *Snapshot {
	t.Helper()
	cfg := lattice.MustBuild(lattice.BCC, 3, 3, 3, 2.8665)
	sys := md.FromLattice(cfg)
	if withVel {
		if err := sys.InitVelocities(300, 5); err != nil {
			t.Fatal(err)
		}
	}
	return FromSystem(sys, "Fe", "test frame", 42)
}

func TestXYZRoundTrip(t *testing.T) {
	for _, withVel := range []bool{true, false} {
		snap := sampleSnapshot(t, withVel)
		if !withVel {
			snap.Vel = nil
		}
		var buf bytes.Buffer
		if err := WriteXYZ(&buf, snap); err != nil {
			t.Fatal(err)
		}
		got, err := ReadXYZ(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Pos) != len(snap.Pos) {
			t.Fatalf("withVel=%v: %d atoms, want %d", withVel, len(got.Pos), len(snap.Pos))
		}
		if got.Step != 42 {
			t.Errorf("step = %d", got.Step)
		}
		if got.Element != "Fe" {
			t.Errorf("element = %q", got.Element)
		}
		if !got.Box.Lengths().ApproxEqual(snap.Box.Lengths(), 1e-8) {
			t.Errorf("box lengths %v vs %v", got.Box.Lengths(), snap.Box.Lengths())
		}
		for i := range snap.Pos {
			if !got.Pos[i].ApproxEqual(snap.Pos[i], 1e-8) {
				t.Fatalf("pos[%d] %v vs %v", i, got.Pos[i], snap.Pos[i])
			}
		}
		if withVel {
			if len(got.Vel) != len(snap.Vel) {
				t.Fatal("velocities lost")
			}
			for i := range snap.Vel {
				if !got.Vel[i].ApproxEqual(snap.Vel[i], 1e-8) {
					t.Fatalf("vel[%d] %v vs %v", i, got.Vel[i], snap.Vel[i])
				}
			}
		} else if len(got.Vel) != 0 {
			t.Error("phantom velocities appeared")
		}
	}
}

func TestReadXYZRejectsGarbage(t *testing.T) {
	cases := []string{
		"",
		"abc\n",
		"-3\nLattice=\"1 0 0 0 1 0 0 0 1\" Properties=species:S:1:pos:R:3\n",
		"2\nno lattice here\nFe 0 0 0\nFe 1 1 1\n",
		"2\nLattice=\"1 0 0 0 1 0\" Properties=species:S:1:pos:R:3\nFe 0 0 0\nFe 1 1 1\n",
		"2\nLattice=\"1 0 0 0 1 0 0 0 1\" Properties=species:S:1:pos:R:3\nFe 0 0 0\n", // truncated
		"1\nLattice=\"1 0 0 0 1 0 0 0 1\" Properties=species:S:1:pos:R:3\nFe 0 zero 0\n",
		"1\nLattice=\"1 0 0 0 1 0 0 0 1\" Properties=species:S:1:pos:R:3\nFe 0 0\n",
		"1\nLattice=\"0 0 0 0 1 0 0 0 1\" Properties=species:S:1:pos:R:3\nFe 0 0 0\n", // degenerate box
	}
	for i, c := range cases {
		if _, err := ReadXYZ(strings.NewReader(c)); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestSnapshotToSystem(t *testing.T) {
	snap := sampleSnapshot(t, true)
	sys, err := snap.ToSystem()
	if err != nil {
		t.Fatal(err)
	}
	if sys.N() != len(snap.Pos) || sys.Mass != snap.Mass {
		t.Error("system reconstruction wrong")
	}
	snap.Vel = snap.Vel[:3]
	if _, err := snap.ToSystem(); err == nil {
		t.Error("mismatched velocities accepted")
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	for _, withVel := range []bool{true, false} {
		snap := sampleSnapshot(t, withVel)
		if !withVel {
			snap.Vel = nil
		}
		snap.Box.Periodic[1] = false
		var buf bytes.Buffer
		if err := WriteCheckpoint(&buf, snap); err != nil {
			t.Fatal(err)
		}
		got, err := ReadCheckpoint(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if got.Step != snap.Step || got.Mass != snap.Mass {
			t.Error("metadata mismatch")
		}
		if got.Box != snap.Box {
			t.Errorf("box %v vs %v", got.Box, snap.Box)
		}
		for i := range snap.Pos {
			if got.Pos[i] != snap.Pos[i] { // binary: bit-exact
				t.Fatalf("pos[%d] not bit-exact", i)
			}
		}
		if withVel {
			for i := range snap.Vel {
				if got.Vel[i] != snap.Vel[i] {
					t.Fatalf("vel[%d] not bit-exact", i)
				}
			}
		}
	}
}

func TestCheckpointDetectsCorruption(t *testing.T) {
	snap := sampleSnapshot(t, true)
	var buf bytes.Buffer
	if err := WriteCheckpoint(&buf, snap); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Flip a byte in the middle of the position payload.
	data[len(data)/2] ^= 0xFF
	if _, err := ReadCheckpoint(bytes.NewReader(data)); err == nil {
		t.Error("corrupted checkpoint accepted")
	}
	// Bad magic.
	data2 := append([]byte(nil), buf.Bytes()...)
	copy(data2, "NOPE")
	if _, err := ReadCheckpoint(bytes.NewReader(data2)); err == nil {
		t.Error("bad magic accepted")
	}
	// Truncated.
	if _, err := ReadCheckpoint(bytes.NewReader(buf.Bytes()[:20])); err == nil {
		t.Error("truncated checkpoint accepted")
	}
	// Mismatched velocity length on write.
	snap.Vel = snap.Vel[:1]
	if err := WriteCheckpoint(&bytes.Buffer{}, snap); err == nil {
		t.Error("mismatched velocities accepted on write")
	}
}

func TestCheckpointRestartContinuesExactly(t *testing.T) {
	// An MD run checkpointed and restarted must continue bit-identical
	// to the uninterrupted run (same serial strategy, same list
	// rebuild schedule modulo build counters).
	cfg := lattice.MustBuild(lattice.BCC, 3, 3, 3, 2.8665)
	sys := md.FromLattice(cfg)
	if err := sys.InitVelocities(200, 9); err != nil {
		t.Fatal(err)
	}

	run := func(s *md.System, steps int) *md.System {
		simCfg := md.DefaultConfig()
		simCfg.Skin = 0 // rebuild every step: no hidden rebuild state
		sim, err := md.NewSimulator(s, simCfg)
		if err != nil {
			t.Fatal(err)
		}
		defer sim.Close()
		if err := sim.Step(steps); err != nil {
			t.Fatal(err)
		}
		return s
	}

	full := run(sys.Clone(), 20)

	half := run(sys.Clone(), 10)
	var buf bytes.Buffer
	if err := WriteCheckpoint(&buf, FromSystem(half, "Fe", "", 10)); err != nil {
		t.Fatal(err)
	}
	restored, err := ReadCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	rsys, err := restored.ToSystem()
	if err != nil {
		t.Fatal(err)
	}
	resumed := run(rsys, 10)

	for i := range full.Pos {
		if !resumed.Pos[i].ApproxEqual(full.Pos[i], 1e-12) {
			t.Fatalf("restart diverged at atom %d: %v vs %v", i, resumed.Pos[i], full.Pos[i])
		}
	}
}

func TestFromSystemCopies(t *testing.T) {
	cfg := lattice.MustBuild(lattice.SC, 2, 2, 2, 1)
	sys := md.FromLattice(cfg)
	snap := FromSystem(sys, "Fe", "", 0)
	sys.Pos[0] = vec.New(9, 9, 9)
	if snap.Pos[0] == sys.Pos[0] {
		t.Error("snapshot must copy positions")
	}
}

func TestCheckpointFileAtomicRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.sdck")
	snap := sampleSnapshot(t, true)
	if err := WriteCheckpointFile(path, snap); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCheckpointFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := range snap.Pos {
		if got.Pos[i] != snap.Pos[i] || got.Vel[i] != snap.Vel[i] {
			t.Fatalf("atom %d not bit-exact through file round trip", i)
		}
	}
	// Overwrite with different state: the rename must replace, and no
	// temp files may be left behind.
	snap2 := sampleSnapshot(t, true)
	snap2.Step = snap.Step + 50
	if err := WriteCheckpointFile(path, snap2); err != nil {
		t.Fatal(err)
	}
	got2, err := ReadCheckpointFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got2.Step != snap2.Step {
		t.Errorf("step %d after overwrite, want %d", got2.Step, snap2.Step)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("directory has %d entries after two writes, want 1 (no temp litter)", len(entries))
	}
}

func TestCheckpointFileRejectsDamage(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.sdck")
	if err := WriteCheckpointFile(path, sampleSnapshot(t, true)); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Truncation: every prefix shorter than the full file must fail
	// (spot-check a few cut points including mid-header and mid-CRC).
	for _, cut := range []int{0, 3, 10, len(data) / 2, len(data) - 1} {
		trunc := filepath.Join(dir, "trunc.sdck")
		if err := os.WriteFile(trunc, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadCheckpointFile(trunc); err == nil {
			t.Errorf("truncated checkpoint (%d of %d bytes) accepted", cut, len(data))
		}
	}
	// Single bit flip anywhere after the magic must trip the CRC.
	for _, at := range []int{5, 20, len(data) / 2, len(data) - 2} {
		flipped := append([]byte(nil), data...)
		flipped[at] ^= 0x01
		bad := filepath.Join(dir, "flip.sdck")
		if err := os.WriteFile(bad, flipped, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadCheckpointFile(bad); err == nil {
			t.Errorf("bit flip at byte %d accepted", at)
		}
	}
	if _, err := ReadCheckpointFile(filepath.Join(dir, "missing.sdck")); err == nil {
		t.Error("missing file accepted")
	}
}
