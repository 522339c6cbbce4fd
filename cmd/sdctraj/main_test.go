package main

import (
	"os"
	"path/filepath"
	"testing"
)

// writeTrajectory produces a short real trajectory via the library.
func writeTrajectory(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "traj.xyz")
	// Reuse mdrun's public machinery indirectly: simplest is to run a
	// small simulation through the facade.
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sim := newSimForTest(t)
	defer sim.Close()
	for k := 0; k < 4; k++ {
		if err := sim.WriteXYZ(f, "frame"); err != nil {
			t.Fatal(err)
		}
		if err := sim.Run(5); err != nil {
			t.Fatal(err)
		}
	}
	return path
}

func TestRunAnalyses(t *testing.T) {
	path := writeTrajectory(t)
	for _, args := range [][]string{
		{"-in", path, "-rdf", "-rmax", "3.5", "-bins", "20"},
		{"-in", path, "-msd"},
		{"-in", path, "-vacf"},
		{"-in", path, "-coord", "-rc", "2.7"},
		{"-in", path, "-rdf", "-msd", "-vacf", "-coord"},
		// A cutoff far below the atomic spacing finds no neighbors,
		// without asking the neighbor grid for ~10¹⁵ cells.
		{"-in", path, "-coord", "-rc", "1e-4"},
		{"-in", path, "-rdf", "-rmax", "1e-4"},
	} {
		if err := run(args); err != nil {
			t.Errorf("%v: %v", args, err)
		}
	}
}

func TestRunErrors(t *testing.T) {
	if err := run(nil); err == nil {
		t.Error("missing -in accepted")
	}
	if err := run([]string{"-in", "/nonexistent", "-rdf"}); err == nil {
		t.Error("missing file accepted")
	}
	path := writeTrajectory(t)
	if err := run([]string{"-in", path}); err == nil {
		t.Error("no analysis selected accepted")
	}
	if err := run([]string{"-bogus"}); err == nil {
		t.Error("bad flag accepted")
	}
	// Empty trajectory.
	dir := t.TempDir()
	empty := filepath.Join(dir, "empty.xyz")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-in", empty, "-rdf"}); err == nil {
		t.Error("empty trajectory accepted")
	}
}
