package main

import (
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"sdcmd/internal/lint"
)

// mutation plants one bug at a live site of the tree: the first
// occurrence of old after site in file becomes new. The pass named by
// rule must report it on the line the edit lands on, or on the line
// holding landsOn when the bug surfaces elsewhere (a deleted join shows
// at the go statement it no longer joins).
type mutation struct {
	rule string
	// file is the slash-separated path from the module root.
	file string
	// site occurs exactly once in file and precedes the edit, usually a
	// function header.
	site     string
	old, new string
	// imports, when set, is a package the new code needs; it is added
	// to the file's import block.
	imports string
	// landsOn, when set, occurs exactly once in the mutated file and
	// marks the finding's line; otherwise the finding lands on the
	// first line where new differs from old.
	landsOn string
}

// mutations holds at least one planted bug per pass of passes(), each
// at a site that pass exists to guard.
var mutations = []mutation{
	{rule: "pool-only-go", file: "internal/md/simulator.go",
		site: "func (s *Simulator) StepCtx(",
		old:  "th.Apply(s.Sys, dt)", new: "go th.Apply(s.Sys, dt)"},
	{rule: "cs-only-atomics", file: "internal/strategy/sap.go",
		site: "import (",
		old:  "\"sync\"\n", new: "\"sync\"\n\t_ \"sync/atomic\"\n"},
	{rule: "float-compare", file: "internal/force/analytic.go",
		site: "func (e *Engine) feForceTerms(",
		old:  "r >= cut", new: "r == cut"},
	{rule: "unchecked-error", file: "internal/md/simulator.go",
		site: "func (s *Simulator) Rebuild(",
		old:  "if err := s.rebuild(); err != nil {\n\t\treturn err\n\t}", new: "s.rebuild()"},
	{rule: "kernel-determinism", file: "internal/force/engine.go",
		site: "func (e *Engine) pack(",
		old:  "e.img = e.Box.Image()", new: "_ = time.Now()\n\te.img = e.Box.Image()", imports: "time"},
	{rule: "no-panic", file: "internal/md/simulator.go",
		site: "func (s *Simulator) ApplyStrain(",
		old:  "return err", new: "panic(err)"},
	{rule: "sdc-shared-write", file: "internal/force/engine.go",
		site: "func (e *Engine) embedding(",
		old:  "partial[tid] += sum", new: "partial[0] += sum"},
	{rule: "hot-loop", file: "internal/strategy/row.go",
		site: "func addRow[",
		old:  "oi += ci[k]", new: "_ = make([]float64, len(js))\n\t\t\toi += ci[k]"},
	{rule: "hot-loop", file: "internal/force/analytic.go",
		site: "func (e *Engine) feDensityTerms(",
		old:  "phi, _ := dens.FromExp(cj[k])", new: "_ = make([]float64, len(js))\n\t\t\tphi, _ := dens.FromExp(cj[k])"},
	{rule: "goroutine-leak", file: "internal/serve/scheduler.go",
		site: "func (s *Scheduler) worker() {",
		old:  "\tdefer s.wg.Done()\n", new: "",
		landsOn: "go s.worker()"},
	{rule: "lock-order", file: "internal/serve/scheduler.go",
		site: "func (s *Scheduler) Counters() Counters {",
		old:  "return s.counters", new: "_ = s.QueueDepth()\n\treturn s.counters"},
	{rule: "ctx-propagation", file: "internal/guard/watchdog.go",
		site: "func stepWithWatchdog(",
		old:  "timer := time.NewTimer(deadline)",
		new:  "if err := <-done; err != nil {\n\t\treturn err\n\t}\n\ttimer := time.NewTimer(deadline)"},
	{rule: "nondet-order", file: "internal/serve/scheduler.go",
		site: "func (s *Scheduler) nextJobLocked() *Job {",
		old:  "\tsort.Strings(names)\n", new: "",
		landsOn: "names = append(names, name)"},
}

// TestEveryPassCatchesItsPlantedBug is the earn-or-delete gate of the
// analysis stack: every pass sdcvet runs must flag a bug planted at a
// live site of the tree, not only its own fixtures. The module is
// copied once, every row's bug is planted, and one load and one run of
// all passes must credit each row with a finding of its own rule on its
// own line, so cross-talk between passes cannot credit the wrong one.
// A pass without a row fails here, and so does a row whose site or old
// text a refactor removed: move the row with its code.
func TestEveryPassCatchesItsPlantedBug(t *testing.T) {
	rows := map[string]bool{}
	for _, m := range mutations {
		rows[m.rule] = true
	}
	for _, p := range passes() {
		if !rows[p.Name()] {
			t.Errorf("pass %s has no mutation row: plant a bug it must catch in live code, or delete it", p.Name())
		}
	}
	if testing.Short() {
		t.Skip("type-checks a mutated copy of the whole repository")
	}

	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	copyModule(t, root, dir)
	lines := plant(t, dir, mutations)
	pkgs, err := lint.Load(dir, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	type key struct {
		rule, file string
		line       int
	}
	found := map[key]bool{}
	for _, f := range lint.RunPasses(pkgs, passes()) {
		found[key{f.Rule, f.File, f.Line}] = true
	}
	for i, m := range mutations {
		if !found[key{m.rule, m.file, lines[i]}] {
			t.Errorf("%s missed its planted bug at %s:%d (%q → %q after %q)",
				m.rule, m.file, lines[i], m.old, m.new, m.site)
		}
	}
}

// copyModule copies go.mod and every .go file under root into dst,
// skipping hidden directories, testdata trees and nested modules such
// as bench/.
func copyModule(t *testing.T, root, dst string) {
	t.Helper()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == root {
				return nil
			}
			if strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		if rel != "go.mod" && !strings.HasSuffix(rel, ".go") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// edit replaces old at byte offset at of a file's original source;
// row is its mutation's index, or -1 for an added import.
type edit struct {
	at       int
	old, new string
	row      int
}

// plant applies every row's edit to the copy under dir and returns, per
// row, the line its finding must land on.
func plant(t *testing.T, dir string, rows []mutation) []int {
	t.Helper()
	srcs := map[string]string{}
	edits := map[string][]edit{}
	for i, m := range rows {
		src, ok := srcs[m.file]
		if !ok {
			data, err := os.ReadFile(filepath.Join(dir, filepath.FromSlash(m.file)))
			if err != nil {
				t.Fatalf("%s: %v", m.rule, err)
			}
			src = string(data)
			srcs[m.file] = src
		}
		if n := strings.Count(src, m.site); n != 1 {
			t.Fatalf("%s: site %q occurs %d times in %s, want once", m.rule, m.site, n, m.file)
		}
		from := strings.Index(src, m.site) + len(m.site)
		k := strings.Index(src[from:], m.old)
		if k < 0 {
			t.Fatalf("%s: %q no longer follows %q in %s; move the row with its code", m.rule, m.old, m.site, m.file)
		}
		edits[m.file] = append(edits[m.file], edit{at: from + k, old: m.old, new: m.new, row: i})
		if m.imports != "" {
			const block = "import (\n"
			j := strings.Index(src, block)
			if j < 0 {
				t.Fatalf("%s: %s has no import block for %q", m.rule, m.file, m.imports)
			}
			edits[m.file] = append(edits[m.file], edit{at: j + len(block), new: "\t\"" + m.imports + "\"\n", row: -1})
		}
	}
	lines := make([]int, len(rows))
	for file, es := range edits {
		sort.Slice(es, func(a, b int) bool { return es[a].at < es[b].at })
		src := srcs[file]
		var out strings.Builder
		prev := 0
		for _, e := range es {
			if e.at < prev {
				t.Fatalf("overlapping mutations in %s", file)
			}
			out.WriteString(src[prev:e.at])
			if e.row >= 0 {
				same := 0
				for same < len(e.old) && same < len(e.new) && e.old[same] == e.new[same] {
					same++
				}
				lines[e.row] = 1 + strings.Count(out.String(), "\n") + strings.Count(e.new[:same], "\n")
			}
			out.WriteString(e.new)
			prev = e.at + len(e.old)
		}
		out.WriteString(src[prev:])
		mutated := out.String()
		for _, e := range es {
			if e.row < 0 || rows[e.row].landsOn == "" {
				continue
			}
			m := rows[e.row]
			if n := strings.Count(mutated, m.landsOn); n != 1 {
				t.Fatalf("%s: %q occurs %d times in mutated %s, want once", m.rule, m.landsOn, n, file)
			}
			lines[e.row] = 1 + strings.Count(mutated[:strings.Index(mutated, m.landsOn)], "\n")
		}
		if err := os.WriteFile(filepath.Join(dir, filepath.FromSlash(file)), []byte(mutated), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return lines
}
