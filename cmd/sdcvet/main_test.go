package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// chdirTo moves the test into dir (relative to this package) so run()
// analyzes a known corpus.
func chdirTo(t *testing.T, dir string) {
	t.Helper()
	abs, err := filepath.Abs(filepath.Join(append([]string{"..", ".."}, strings.Split(dir, "/")...)...))
	if err != nil {
		t.Fatal(err)
	}
	old, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(abs); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = os.Chdir(old) })
}

func TestRunFixtureFindings(t *testing.T) {
	chdirTo(t, "internal/flow/testdata/writeset")
	var out, errb bytes.Buffer
	code := run([]string{"./..."}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit %d, want 1; stderr: %s", code, errb.String())
	}
	s := out.String()
	for _, want := range []string{
		"sdc-shared-write",
		"hot-loop",
		"internal/app/leak.go:14", // the helper's write line, not the call site
		"internal/badstrat/bad.go",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
}

// TestRunRealRepoClean is the acceptance gate: the analyzer over the
// actual repository must report nothing — every worker-body write is
// provably confined, routed through an approved reducer, or carries a
// reviewed //lint:ignore with a reason.
func TestRunRealRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole repository")
	}
	chdirTo(t, ".")
	var out, errb bytes.Buffer
	if code := run([]string{"./..."}, &out, &errb); code != 0 {
		t.Fatalf("sdcvet over the real repo: exit %d, want 0\nstdout: %s\nstderr: %s",
			code, out.String(), errb.String())
	}
	if out.Len() != 0 {
		t.Errorf("clean repo printed findings:\n%s", out.String())
	}
}

func TestRunJSON(t *testing.T) {
	chdirTo(t, "internal/flow/testdata/writeset")
	var out, errb bytes.Buffer
	if code := run([]string{"-json", "./..."}, &out, &errb); code != 1 {
		t.Fatalf("exit %d, want 1; stderr: %s", code, errb.String())
	}
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
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

func TestRunSARIF(t *testing.T) {
	chdirTo(t, "internal/flow/testdata/writeset")
	var out, errb bytes.Buffer
	if code := run([]string{"-sarif", "./..."}, &out, &errb); code != 1 {
		t.Fatalf("exit %d, want 1; stderr: %s", code, errb.String())
	}
	var doc struct {
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string `json:"name"`
					Rules []struct {
						ID string `json:"id"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID string `json:"ruleId"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatalf("invalid SARIF: %v", err)
	}
	if doc.Version != "2.1.0" || len(doc.Runs) != 1 {
		t.Fatalf("unexpected SARIF shape: version %q, %d runs", doc.Version, len(doc.Runs))
	}
	if doc.Runs[0].Tool.Driver.Name != "sdcvet" {
		t.Errorf("driver name %q", doc.Runs[0].Tool.Driver.Name)
	}
	ruleIDs := map[string]bool{}
	for _, r := range doc.Runs[0].Tool.Driver.Rules {
		ruleIDs[r.ID] = true
	}
	for _, want := range []string{"sdc-shared-write", "hot-loop", "pool-only-go"} {
		if !ruleIDs[want] {
			t.Errorf("rule inventory missing %s", want)
		}
	}
	if len(doc.Runs[0].Results) == 0 {
		t.Error("no SARIF results for the broken fixture")
	}
	for _, r := range doc.Runs[0].Results {
		if r.RuleID == "" {
			t.Error("result without ruleId")
		}
	}
}

func TestRunRulesListsAllPasses(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-rules"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d; stderr: %s", code, errb.String())
	}
	s := out.String()
	for _, want := range []string{
		"pool-only-go", "cs-only-atomics", "float-compare",
		"unchecked-error", "kernel-determinism", "no-panic",
		"sdc-shared-write", "hot-loop",
		"goroutine-leak", "lock-order", "ctx-propagation", "nondet-order",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("-rules missing %s:\n%s", want, s)
		}
	}
}

// TestRunFlowFixtureFindings drives the four lifecycle passes through the
// command over their own broken fixture.
func TestRunFlowFixtureFindings(t *testing.T) {
	chdirTo(t, "internal/flow/testdata/src")
	var out, errb bytes.Buffer
	code := run([]string{"./..."}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit %d, want 1; stderr: %s", code, errb.String())
	}
	s := out.String()
	for _, want := range []string{
		"goroutine-leak", "lock-order", "ctx-propagation", "nondet-order",
		"internal/leak/leak.go", "internal/locks/locks.go",
		"internal/ctxprop/ctx.go", "internal/nondet/nondet.go",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
}

// TestKernelBudgetGate pins the -write-kernel-budget / -kernel-budget
// cycle on a scratch module: a recorded budget gates its own tree at
// exit 0, a baseline recorded too low fails the gate, and one recorded
// too high passes with an improvement note; an inlined count works the
// other way round, so a baseline that claims more inlined calls fails.
func TestKernelBudgetGate(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module scratch\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	src := `package scratch

func Escape() *int {
	v := 42
	return &v
}

func Index(xs []float64, i int) float64 {
	return xs[i]
}

func half(x float64) float64 { return x / 2 }

func Quarter(x float64) float64 { return half(x) / 2 }
`
	if err := os.WriteFile(filepath.Join(dir, "k.go"), []byte(src), 0o644); err != nil {
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

	base := filepath.Join(dir, "LINT_kernel.json")
	var out, errb bytes.Buffer
	if code := run([]string{"-write-kernel-budget", base, "."}, &out, &errb); code != 0 {
		t.Fatalf("-write-kernel-budget exit %d; stderr: %s", code, errb.String())
	}
	out.Reset()
	errb.Reset()
	if code := run([]string{"-kernel-budget", "-kernel-baseline", base, "."}, &out, &errb); code != 0 {
		t.Fatalf("self gate exit %d, want 0\nstdout: %s\nstderr: %s", code, out.String(), errb.String())
	}

	// Tampered baseline with a lower bounds count: the gate must fail
	// and name the regressed file and metric.
	data, err := os.ReadFile(base)
	if err != nil {
		t.Fatal(err)
	}
	lowered := strings.Replace(string(data), `"bounds": 1`, `"bounds": 0`, 1)
	if lowered == string(data) {
		t.Fatalf("baseline had no bounds count to tamper with:\n%s", data)
	}
	if err := os.WriteFile(base, []byte(lowered), 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	errb.Reset()
	if code := run([]string{"-kernel-budget", "-kernel-baseline", base, "."}, &out, &errb); code != 1 {
		t.Fatalf("regressed gate exit %d, want 1\nstdout: %s\nstderr: %s", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "kernel budget exceeded") || !strings.Contains(out.String(), "bounds") {
		t.Errorf("regression output missing detail:\n%s", out.String())
	}

	// Inflated baseline: improvement, gate passes with a note.
	raised := strings.Replace(string(data), `"bounds": 1`, `"bounds": 5`, 1)
	if err := os.WriteFile(base, []byte(raised), 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	errb.Reset()
	if code := run([]string{"-kernel-budget", "-kernel-baseline", base, "."}, &out, &errb); code != 0 {
		t.Fatalf("improved gate exit %d, want 0\nstdout: %s\nstderr: %s", code, out.String(), errb.String())
	}
	if !strings.Contains(errb.String(), "improvement") {
		t.Errorf("improvement note missing:\n%s", errb.String())
	}

	// A baseline that claims more inlined calls than the tree makes:
	// the gate must fail and name the metric.
	uninlined := strings.Replace(string(data), `"inlined": 1`, `"inlined": 2`, 1)
	if uninlined == string(data) {
		t.Fatalf("baseline had no inlined count to tamper with:\n%s", data)
	}
	if err := os.WriteFile(base, []byte(uninlined), 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	errb.Reset()
	if code := run([]string{"-kernel-budget", "-kernel-baseline", base, "."}, &out, &errb); code != 1 {
		t.Fatalf("uninlined gate exit %d, want 1\nstdout: %s\nstderr: %s", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "inlined 2 -> 1") {
		t.Errorf("regression output missing the inlined count:\n%s", out.String())
	}
}

// TestRunFixRemovesStaleIgnore drives -fix end to end: a directive for
// a known rule that fires nothing is stale (exit 1 without -fix), and
// -fix rewrites the file and exits clean.
func TestRunFixRemovesStaleIgnore(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module tmp\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "a.go")
	src := "package tmp\n\n//lint:ignore no-panic historical\nfunc F() int { return 1 }\n"
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
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

	var out, errb bytes.Buffer
	if code := run([]string{"./..."}, &out, &errb); code != 1 || !strings.Contains(out.String(), "stale-ignore") {
		t.Fatalf("expected stale-ignore finding, exit %d:\n%s", code, out.String())
	}
	out.Reset()
	errb.Reset()
	if code := run([]string{"-fix", "./..."}, &out, &errb); code != 0 {
		t.Fatalf("-fix exit %d, want 0\nstdout: %s\nstderr: %s", code, out.String(), errb.String())
	}
	if !strings.Contains(errb.String(), "removed stale ignore") {
		t.Errorf("fix report missing:\n%s", errb.String())
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(got), "lint:ignore") {
		t.Errorf("stale directive survived -fix:\n%s", got)
	}
}

func TestJSONAndSARIFExclusive(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-json", "-sarif", "./..."}, &out, &errb); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
}

func TestRunMissingDir(t *testing.T) {
	chdirTo(t, "internal/flow/testdata/writeset")
	var out, errb bytes.Buffer
	if code := run([]string{"./no-such-dir/..."}, &out, &errb); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if errb.Len() == 0 {
		t.Error("expected a diagnostic on stderr")
	}
}
