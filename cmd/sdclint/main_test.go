package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// chdirFixture moves the test into the lint package's fixture tree so
// run() lints a corpus with known findings.
func chdirFixture(t *testing.T) {
	t.Helper()
	dir, err := filepath.Abs(filepath.Join("..", "..", "internal", "lint", "testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	old, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = os.Chdir(old) })
}

func TestRunReportsFindings(t *testing.T) {
	chdirFixture(t)
	var out, errb bytes.Buffer
	code := run([]string{"./..."}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit %d, want 1; stderr: %s", code, errb.String())
	}
	s := out.String()
	for _, want := range []string{"pool-only-go", "cs-only-atomics", "float-compare", "unchecked-error", "kernel-determinism", "no-panic"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing rule %s:\n%s", want, s)
		}
	}
}

func TestRunJSON(t *testing.T) {
	chdirFixture(t)
	var out, errb bytes.Buffer
	code := run([]string{"-json", "./..."}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit %d, want 1; stderr: %s", code, errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) == 0 {
		t.Fatal("no JSON lines")
	}
	for _, line := range lines {
		var f struct {
			File string `json:"file"`
			Line int    `json:"line"`
			Rule string `json:"rule"`
		}
		if err := json.Unmarshal([]byte(line), &f); err != nil {
			t.Fatalf("bad JSON line %q: %v", line, err)
		}
		if f.File == "" || f.Line == 0 || f.Rule == "" {
			t.Errorf("incomplete finding: %q", line)
		}
	}
}

func TestRunCleanSubtree(t *testing.T) {
	chdirFixture(t)
	var out, errb bytes.Buffer
	if code := run([]string{"./examples/..."}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, want 0; stdout: %s stderr: %s", code, out.String(), errb.String())
	}
	if out.Len() != 0 {
		t.Errorf("clean subtree printed findings:\n%s", out.String())
	}
}

func TestRunRulesListing(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-rules"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, want 0", code)
	}
	for _, want := range []string{"pool-only-go", "cs-only-atomics", "float-compare", "unchecked-error", "kernel-determinism", "no-panic"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("rule listing missing %s:\n%s", want, out.String())
		}
	}
}

func TestRunMissingDir(t *testing.T) {
	chdirFixture(t)
	var out, errb bytes.Buffer
	if code := run([]string{"./no-such-dir/..."}, &out, &errb); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if errb.Len() == 0 {
		t.Error("expected a diagnostic on stderr")
	}
}

func TestRunSARIF(t *testing.T) {
	chdirFixture(t)
	var out, errb bytes.Buffer
	if code := run([]string{"-sarif", "./..."}, &out, &errb); code != 1 {
		t.Fatalf("exit %d, want 1; stderr: %s", code, errb.String())
	}
	var doc struct {
		Version string `json:"version"`
		Runs    []struct {
			Results []struct {
				RuleID string `json:"ruleId"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatalf("invalid SARIF: %v", err)
	}
	if doc.Version != "2.1.0" || len(doc.Runs) != 1 || len(doc.Runs[0].Results) == 0 {
		t.Fatalf("unexpected SARIF shape:\n%s", out.String())
	}
}

func TestJSONAndSARIFExclusive(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-json", "-sarif", "./..."}, &out, &errb); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
}
