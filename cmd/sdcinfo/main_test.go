package main

import "testing"

func TestRunByCase(t *testing.T) {
	for _, name := range []string{"small", "medium", "large3", "large4", "large"} {
		if err := run([]string{"-case", name, "-reach", "4.0"}); err != nil {
			t.Errorf("case %s: %v", name, err)
		}
	}
	// Reach 0.05 Å needs 858³ subdomains in 3D: the grid cap reports
	// it infeasible instead of allocating it.
	if err := run([]string{"-case", "small", "-reach", "0.05"}); err != nil {
		t.Errorf("tiny reach: %v", err)
	}
}

func TestRunByEdge(t *testing.T) {
	if err := run([]string{"-edge", "100", "-reach", "4.0", "-threads", "8"}); err != nil {
		t.Fatal(err)
	}
	// Tiny edge: all dims infeasible but the tool still reports.
	if err := run([]string{"-edge", "5", "-reach", "4.0"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	if err := run(nil); err == nil {
		t.Error("no -edge/-case accepted")
	}
	if err := run([]string{"-case", "gigantic"}); err == nil {
		t.Error("unknown case accepted")
	}
	if err := run([]string{"-edge", "-3"}); err == nil {
		t.Error("negative edge accepted")
	}
	if err := run([]string{"-bogus"}); err == nil {
		t.Error("bad flag accepted")
	}
}
