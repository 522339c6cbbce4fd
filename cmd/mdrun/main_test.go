package main

import (
	"bytes"
	"encoding/csv"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"sdcmd/internal/xyz"
)

func TestRunBasic(t *testing.T) {
	if err := run([]string{"-cells", "4", "-steps", "5", "-every", "5"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunBadFlags(t *testing.T) {
	cases := [][]string{
		{"-cells", "-1"},
		{"-strategy", "bogus"},
		{"-steps", "-5"},
		{"-every", "0"},
		{"-not-a-flag"},
	}
	for i, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("case %d accepted: %v", i, args)
		}
	}
	// The removed work-stealing strategy is rejected with the list of
	// strategies that remain.
	err := run([]string{"-strategy", "tasked", "-cells", "6", "-steps", "1"})
	if err == nil {
		t.Fatal("-strategy tasked accepted")
	}
	for _, k := range []string{"serial", "sdc", "cs", "atomic", "sap", "rc"} {
		if !strings.Contains(err.Error(), k) {
			t.Errorf("-strategy tasked error %q does not list %q", err, k)
		}
	}
}

func TestRunXYZAndCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	xyzPath := filepath.Join(dir, "traj.xyz")
	ckpt := filepath.Join(dir, "state.sdck")
	if err := run([]string{"-cells", "4", "-steps", "10", "-every", "5",
		"-xyz", xyzPath, "-checkpoint", ckpt}); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(xyzPath); err != nil || fi.Size() == 0 {
		t.Errorf("xyz file missing/empty: %v", err)
	}
	if fi, err := os.Stat(ckpt); err != nil || fi.Size() == 0 {
		t.Errorf("checkpoint missing/empty: %v", err)
	}
	// Resume and continue to the absolute target, logging the thermo
	// records of the continued run.
	thermo := filepath.Join(dir, "thermo.csv")
	if err := run([]string{"-resume", "-checkpoint", ckpt, "-steps", "15", "-every", "5",
		"-log", thermo}); err != nil {
		t.Fatalf("resume: %v", err)
	}
	snap, err := xyz.ReadCheckpointFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Step != 15 {
		t.Errorf("resumed run checkpointed step %d, want 15", snap.Step)
	}
	recs := thermoRecords(t, thermo)
	if len(recs) != 3 || recs[1][0] != "10" || recs[2][0] != "15" {
		t.Errorf("thermo log of the resumed run %v, want the header and steps 10 and 15", recs)
	}
	if err := run([]string{"-resume", "-checkpoint", filepath.Join(dir, "nope.sdck")}); err == nil {
		t.Error("missing checkpoint accepted")
	}
}

// thermoRecords reads a -log CSV file.
func thermoRecords(t *testing.T, path string) [][]string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = f.Close() }()
	recs, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

func TestRunSDCParallel(t *testing.T) {
	if err := run([]string{"-cells", "6", "-steps", "4", "-strategy", "sdc", "-threads", "2", "-every", "4"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunGuardedSmoke(t *testing.T) {
	dir := t.TempDir()
	evLog := filepath.Join(dir, "events.jsonl")
	if err := run([]string{"-cells", "4", "-steps", "10", "-every", "5",
		"-check-every", "5", "-guard-log", evLog}); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(evLog); err != nil {
		t.Errorf("guard log missing: %v", err)
	} else if fi.Size() != 0 {
		// A clean run records no transitions; any content means a fault.
		b, _ := os.ReadFile(evLog)
		t.Errorf("clean run produced guard events: %s", b)
	}
}

func TestRunGuardedBadFlags(t *testing.T) {
	cases := [][]string{
		{"-checkpoint-every", "5"}, // no -checkpoint
		{"-resume"},                // no -checkpoint
		{"-resume", "-checkpoint", "does-not-exist.sdck"}, // missing file
	}
	for i, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("case %d accepted: %v", i, args)
		}
	}
}

// TestRunInterruptCheckpointsAndExitsNonzero drives the signal path end
// to end: a SIGTERM mid-run must stop the integrator at a step
// boundary, still write the requested final checkpoint, and surface a
// nonzero ("interrupted") exit so callers can tell a cut-short run from
// a completed one. The checkpoint must then resume cleanly.
func TestRunInterruptCheckpointsAndExitsNonzero(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "state.sdck")
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-cells", "4", "-steps", "100000000", "-every", "1000",
			"-checkpoint", ckpt})
	}()
	// Let the run get past setup and into the step loop before signaling.
	time.Sleep(200 * time.Millisecond)
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "interrupted by signal") {
			t.Fatalf("want interrupted error, got %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("run did not stop after SIGTERM")
	}
	if fi, err := os.Stat(ckpt); err != nil || fi.Size() == 0 {
		t.Fatalf("final checkpoint missing/empty after interrupt: %v", err)
	}
	snap, err := xyz.ReadCheckpointFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	target := strconv.Itoa(snap.Step + 5)
	if err := run([]string{"-resume", "-checkpoint", ckpt, "-steps", target, "-every", "5"}); err != nil {
		t.Fatalf("resume after interrupt: %v", err)
	}
}

// TestRunGuardedResumeBitForBit is the acceptance check for atomic
// checkpointing: a run interrupted at a checkpoint and resumed with
// -resume must end in exactly the state of an uninterrupted twin. The
// comparison is on raw checkpoint bytes (positions AND velocities).
func TestRunGuardedResumeBitForBit(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, "full.sdck")
	part := filepath.Join(dir, "part.sdck")
	common := []string{"-cells", "4", "-every", "10", "-checkpoint-every", "10", "-check-every", "5"}

	// Uninterrupted reference: 0 -> 30.
	if err := run(append([]string{"-steps", "30", "-checkpoint", full}, common...)); err != nil {
		t.Fatal(err)
	}
	// Interrupted twin: stop at step 10 ("killed" right after the
	// atomic checkpoint landed), then resume to the same target.
	if err := run(append([]string{"-steps", "10", "-checkpoint", part}, common...)); err != nil {
		t.Fatal(err)
	}
	if err := run(append([]string{"-resume", "-steps", "30", "-checkpoint", part}, common...)); err != nil {
		t.Fatalf("resume: %v", err)
	}

	a, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(part)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("resumed run's final checkpoint differs from the uninterrupted run's")
	}
}
