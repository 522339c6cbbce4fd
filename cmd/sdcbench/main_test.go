package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestRunExperiments(t *testing.T) {
	for _, exp := range []string{"table1", "numa"} {
		if err := run([]string{"-experiment", exp, "-threads", "2,4"}); err != nil {
			t.Errorf("%s: %v", exp, err)
		}
	}
}

func TestRunMeasuredTiny(t *testing.T) {
	if err := run([]string{"-experiment", "reorder", "-mode", "measured",
		"-cells", "6", "-steps", "1", "-threads", "2"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunChecked(t *testing.T) {
	if err := run([]string{"-experiment", "reorder", "-check", "-mode", "measured",
		"-cells", "6", "-steps", "1", "-threads", "2"}); err != nil {
		t.Fatal(err)
	}
}

// TestAllCoversEveryExperiment pins the -experiment all contract: the
// usage string promises "everything", and a previous revision silently
// skipped one. Every dispatchable experiment must appear in
// allExperiments exactly once.
func TestAllCoversEveryExperiment(t *testing.T) {
	want := []string{"table1", "fig9", "reorder", "numa", "cluster", "load"}
	if len(allExperiments) != len(want) {
		t.Fatalf("allExperiments = %v, want %v", allExperiments, want)
	}
	seen := map[string]bool{}
	for _, e := range allExperiments {
		if seen[e] {
			t.Errorf("experiment %q listed twice", e)
		}
		seen[e] = true
	}
	for _, e := range want {
		if !seen[e] {
			t.Errorf("experiment %q missing from -experiment all", e)
		}
	}
}

func TestRunLoadBenchWritesAndDiffsBaseline(t *testing.T) {
	out := filepath.Join(t.TempDir(), "BENCH_load.json")
	if err := run([]string{"-experiment", "load", "-load-clients", "16",
		"-load-duration", "300ms", "-load-out", out}); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var res struct {
		Clients        int     `json:"clients"`
		Submits        int     `json:"submits"`
		Completed      int     `json:"completed"`
		Errors         int     `json:"errors"`
		JobsPerSec     float64 `json:"jobs_per_sec"`
		CompletionRate float64 `json:"completion_rate"`
	}
	if err := json.Unmarshal(b, &res); err != nil {
		t.Fatalf("BENCH_load.json: %v", err)
	}
	if res.Clients != 16 || res.Submits == 0 || res.Completed == 0 || res.JobsPerSec <= 0 {
		t.Fatalf("implausible load output: %+v", res)
	}
	if res.Errors != 0 {
		t.Errorf("load run logged %d errors", res.Errors)
	}
	// Diffing a fresh run against this output must pass with a loose
	// tolerance — the CI load-baseline job does exactly this against
	// the committed BENCH_load.json.
	if err := run([]string{"-experiment", "load", "-load-clients", "16",
		"-load-duration", "300ms", "-load-out", filepath.Join(t.TempDir(), "next.json"),
		"-load-baseline", out, "-load-tolerance", "0.5"}); err != nil {
		t.Fatal(err)
	}
	// A bogus baseline path is a hard error, not a silent skip.
	if err := run([]string{"-experiment", "load", "-load-clients", "8",
		"-load-duration", "200ms", "-load-out", filepath.Join(t.TempDir(), "x.json"),
		"-load-baseline", filepath.Join(t.TempDir(), "missing.json")}); err == nil {
		t.Error("missing baseline accepted")
	}
}

func TestRunErrors(t *testing.T) {
	for _, exp := range []string{"bogus", "tasked", "serve"} {
		if err := run([]string{"-experiment", exp}); err == nil {
			t.Errorf("unknown experiment %q accepted", exp)
		}
	}
	if err := run([]string{"-mode", "bogus"}); err == nil {
		t.Error("bad mode accepted")
	}
	if err := run([]string{"-threads", "2,x"}); err == nil {
		t.Error("bad threads list accepted")
	}
	if err := run([]string{"-bogus"}); err == nil {
		t.Error("bad flag accepted")
	}
}
