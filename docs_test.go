package sdcmd

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// testRef matches a Test… or Fuzz… identifier as the docs and CI
// write it; "Tests" and "Testing" are words, not names.
var testRef = regexp.MustCompile(`\b(?:Test|Fuzz)[A-Z0-9_]\w*`)

// definedTests returns every top-level Test… and Fuzz… function that a
// _test.go file of the repository defines, fixtures under testdata
// excepted.
func definedTests(t *testing.T) map[string]bool {
	t.Helper()
	defined := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && testRef.MatchString(fn.Name.Name) {
				defined[fn.Name.Name] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return defined
}

// refs calls visit with every Test… or Fuzz… token of the file and
// the line it is on.
func refs(t *testing.T, path string, visit func(line int, name string)) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i, line := range strings.Split(string(data), "\n") {
		for _, name := range testRef.FindAllString(line, -1) {
			visit(i+1, name)
		}
	}
}

// TestDocsCiteDefinedTests keeps the docs' and CI's test citations
// live: a doc that names a deleted pin, or a -run pattern that matches
// nothing and so passes silently, fails here. ROADMAP.md and
// CHANGES.md record plans and history and may name tests that are gone.
func TestDocsCiteDefinedTests(t *testing.T) {
	defined := definedTests(t)
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"} {
		refs(t, doc, func(line int, name string) {
			if !defined[name] {
				t.Errorf("%s:%d names %s, which no test file defines", doc, line, name)
			}
		})
	}
	const ci = ".github/workflows/ci.yml"
	refs(t, ci, func(line int, name string) {
		for d := range defined {
			if strings.HasPrefix(d, name) {
				return
			}
		}
		t.Errorf("%s:%d: %s is a prefix of no defined test", ci, line, name)
	})
}
