package mem

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sdcmd/internal/lint"
)

var update = flag.Bool("update", false, "rewrite golden files")

func loadFixture(t testing.TB) []*lint.Package {
	t.Helper()
	pkgs, err := lint.Load(filepath.Join("testdata", "src"), []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) == 0 {
		t.Fatal("fixture loaded no packages")
	}
	return pkgs
}

func fixtureFindings(t testing.TB) []lint.Finding {
	t.Helper()
	return lint.RunPasses(loadFixture(t), Passes())
}

// TestGoldenFixture pins every finding — rule, file, line, column and
// message — over the broken fixture module.
func TestGoldenFixture(t *testing.T) {
	var sb strings.Builder
	for _, f := range fixtureFindings(t) {
		sb.WriteString(f.String())
		sb.WriteString("\n")
	}
	got := sb.String()
	golden := filepath.Join("testdata", "golden", "findings.txt")
	if *update {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("findings diverge from golden (run with -update to regenerate)\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestEveryPassFires guards against a pass silently dying: each of the
// three rules must produce at least one finding on the fixture.
func TestEveryPassFires(t *testing.T) {
	found := map[string]bool{}
	for _, f := range fixtureFindings(t) {
		found[f.Rule] = true
	}
	for _, p := range Passes() {
		if !found[p.Name()] {
			t.Errorf("pass %q produced no findings on the broken fixture", p.Name())
		}
	}
}

// TestSafePatternsProve pins the precision half: the safe files model
// the benign shapes (lock-dominated mixes, constructor writes, correct
// publication order, reload-in-loop, single-shot CAS) and must produce
// no findings.
func TestSafePatternsProve(t *testing.T) {
	for _, f := range fixtureFindings(t) {
		if strings.Contains(f.File, "safe") {
			t.Errorf("finding in safe fixture file: %s", f.String())
		}
	}
}

// TestStaticCatchesBrokenDeque is the static half of the
// static ⊇ dynamic cross-validation: the two publication bugs
// TestBrokenDequeCaughtDynamically exhibits at runtime — tail
// published before the slot write, slot read before the bounds load —
// must both be flagged here.
func TestStaticCatchesBrokenDeque(t *testing.T) {
	var producer, consumer bool
	for _, f := range fixtureFindings(t) {
		if f.Rule != "publication-safety" || !strings.Contains(f.File, "brokendeque") {
			continue
		}
		if strings.Contains(f.Message, "written after the atomic store") {
			producer = true
		}
		if strings.Contains(f.Message, "read before the atomic load") {
			consumer = true
		}
	}
	if !producer {
		t.Error("producer-side publication bug (slot write after tail store) not flagged")
	}
	if !consumer {
		t.Error("consumer-side publication bug (slot read before bounds load) not flagged")
	}
}

// TestMixedLockDomination pins the flow.HeldSpans integration: the
// Guarded mix in safe.go is silent solely because one lock dominates
// both kinds of access, and the Reset write in bad.go is flagged even
// though it runs under a lock, because the atomic sites do not.
func TestMixedLockDomination(t *testing.T) {
	var resetFlagged bool
	for _, f := range fixtureFindings(t) {
		if f.Rule != "mixed-access" {
			continue
		}
		if strings.Contains(f.File, "safe") && strings.Contains(f.Message, "Guarded.n") {
			t.Errorf("lock-dominated mix wrongly flagged: %s", f.String())
		}
		if strings.Contains(f.File, "mixed/bad.go") && strings.Contains(f.Message, "written") &&
			strings.Contains(f.Message, "Counter.hits") {
			resetFlagged = true
		}
	}
	if !resetFlagged {
		t.Error("one-sided lock on Counter.Reset should not suppress the mixed-access finding")
	}
}
