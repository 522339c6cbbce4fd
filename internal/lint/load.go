package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// SourceFile is one parsed file of a linted package.
type SourceFile struct {
	// AST is the parsed file (with comments).
	AST *ast.File
	// Path is the absolute on-disk path.
	Path string
	// Rel is the slash-separated path relative to the linted root;
	// rules match their allow/deny lists against it.
	Rel string
	// Test reports a _test.go file. Most rules skip test code.
	Test bool
}

// Package is one directory's worth of Go sources plus best-effort type
// information.
type Package struct {
	// Name is the package clause name.
	Name string
	// Rel is the slash-separated directory path relative to the linted
	// root ("" for the root itself).
	Rel string
	// Fset positions every AST node of Files.
	Fset *token.FileSet
	// Files holds all parsed sources, tests included.
	Files []*SourceFile
	// Info carries type information for the non-test files. Loading is
	// tolerant: identifiers that could not be resolved (e.g. through an
	// import the loader faked) simply have no entry, and rules that
	// need types must treat missing entries as "unknown", never as a
	// violation.
	Info *types.Info

	ignores []ignoreDirective
}

// Loader parses and type-checks packages under one root directory.
type Loader struct {
	// Root is the directory Rel paths are computed against (usually the
	// module root).
	Root string
	// Module is the module path used to resolve intra-module imports;
	// read from Root/go.mod when empty.
	Module string

	fset  *token.FileSet
	std   types.Importer
	cache map[string]*types.Package
	// asts caches parsed files by absolute path so a file is parsed
	// exactly once per Load, no matter how many packages import it: the
	// directory walk and the intra-module importer share the cache (one
	// parse of the repo instead of N — the shared-driver contract the
	// parse-once test in internal/flow pins down).
	asts map[string]*ast.File
	// parseHook, when set, observes every actual parser.ParseFile call
	// (cache hits do not fire it).
	parseHook func(path string)
}

// Load expands patterns relative to root and returns the parsed
// packages sorted by Rel. A pattern is either a directory (relative to
// root) or a directory followed by "/..." for a recursive walk; "./..."
// covers the whole tree. testdata, vendor and hidden directories are
// skipped by the walk.
func Load(root string, patterns []string) ([]*Package, error) {
	return LoadWithHook(root, patterns, nil)
}

// LoadWithHook is Load with an observer called once per parsed file —
// the counter hook the loader benchmarks and the parse-once regression
// test use. hook may be nil.
func LoadWithHook(root string, patterns []string, hook func(path string)) ([]*Package, error) {
	abs, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	l := &Loader{
		Root:      abs,
		fset:      token.NewFileSet(),
		cache:     map[string]*types.Package{},
		asts:      map[string]*ast.File{},
		parseHook: hook,
	}
	l.Module = readModulePath(filepath.Join(abs, "go.mod"))
	l.std = importer.ForCompiler(l.fset, "source", nil)

	dirs, err := l.expand(patterns)
	if err != nil {
		return nil, err
	}
	var pkgs []*Package
	for _, dir := range dirs {
		p, err := l.loadDir(dir)
		if err != nil {
			return nil, err
		}
		if p != nil {
			pkgs = append(pkgs, p)
		}
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Rel < pkgs[j].Rel })
	return pkgs, nil
}

// readModulePath extracts the module path from a go.mod, or "" if none.
func readModulePath(path string) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`)
		}
	}
	return ""
}

// expand resolves the patterns to a sorted list of absolute package
// directories.
func (l *Loader) expand(patterns []string) ([]string, error) {
	seen := map[string]bool{}
	var dirs []string
	add := func(dir string) {
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, pat := range patterns {
		recursive := false
		if pat == "..." || strings.HasSuffix(pat, "/...") {
			recursive = true
			pat = strings.TrimSuffix(strings.TrimSuffix(pat, "..."), "/")
			if pat == "" {
				pat = "."
			}
		}
		base := pat
		if !filepath.IsAbs(base) {
			base = filepath.Join(l.Root, base)
		}
		info, err := os.Stat(base)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		if !info.IsDir() {
			return nil, fmt.Errorf("lint: pattern %q is not a directory", pat)
		}
		if !recursive {
			add(base)
			continue
		}
		err = filepath.WalkDir(base, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if path != base && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
				name == "testdata" || name == "vendor") {
				return filepath.SkipDir
			}
			if hasGoFiles(path) {
				add(path)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			return true
		}
	}
	return false
}

// normRel canonicalizes a root-relative path to forward slashes. On
// Windows filepath.Rel returns backslash-separated paths; every Rel the
// loader hands to rules is normalized here so allow-lists written with
// "/" behave identically on every platform.
func normRel(p string) string {
	if strings.IndexByte(p, '\\') < 0 {
		return p
	}
	return strings.ReplaceAll(p, "\\", "/")
}

// parseFile parses path through the shared AST cache: the first request
// parses (firing the hook), later requests — from other importing
// packages or the directory walk — reuse the cached tree.
func (l *Loader) parseFile(path string) (*ast.File, error) {
	if f, ok := l.asts[path]; ok {
		return f, nil
	}
	if l.parseHook != nil {
		l.parseHook(path)
	}
	f, err := parser.ParseFile(l.fset, path, nil, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	l.asts[path] = f
	return f, nil
}

// loadDir parses and type-checks one directory; nil if it holds no Go
// files.
func (l *Loader) loadDir(dir string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	rel, err := filepath.Rel(l.Root, dir)
	if err != nil {
		return nil, err
	}
	rel = normRel(filepath.ToSlash(rel))
	if rel == "." {
		rel = ""
	}
	p := &Package{Rel: rel, Fset: l.fset}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		path := filepath.Join(dir, name)
		f, err := l.parseFile(path)
		if err != nil {
			return nil, err
		}
		frel := name
		if rel != "" {
			frel = rel + "/" + name
		}
		p.Files = append(p.Files, &SourceFile{
			AST:  f,
			Path: path,
			Rel:  frel,
			Test: strings.HasSuffix(name, "_test.go"),
		})
	}
	if len(p.Files) == 0 {
		return nil, nil
	}
	// The package name comes from the first non-test file (external
	// _test packages would otherwise win the vote).
	for _, f := range p.Files {
		if !f.Test || p.Name == "" {
			p.Name = f.AST.Name.Name
		}
		if !f.Test {
			break
		}
	}
	p.Info = l.typecheck(dir, p)
	p.collectIgnores()
	return p, nil
}

// typecheck runs go/types over the non-test files, tolerantly: type
// errors are collected and discarded, unresolved imports become empty
// placeholder packages, and whatever information survives is returned.
// Rules therefore get precise types for intra-module and stdlib
// references and "unknown" for everything else.
func (l *Loader) typecheck(dir string, p *Package) *types.Info {
	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Uses:  map[*ast.Ident]types.Object{},
		Defs:  map[*ast.Ident]types.Object{},
	}
	var files []*ast.File
	for _, f := range p.Files {
		if !f.Test {
			files = append(files, f.AST)
		}
	}
	if len(files) == 0 {
		return info
	}
	conf := types.Config{
		Importer: l,
		Error:    func(error) {}, // tolerate; missing info is handled per-rule
	}
	// The returned error only repeats what conf.Error already saw.
	pkgPath := p.Rel
	if l.Module != "" {
		pkgPath = l.Module
		if p.Rel != "" {
			pkgPath = l.Module + "/" + p.Rel
		}
	}
	_, _ = conf.Check(pkgPath, l.fset, files, info)
	return info
}

// Import implements types.Importer: intra-module packages are parsed
// and checked from source, stdlib packages come from the source
// importer, and anything unresolvable degrades to an empty placeholder
// package so checking can proceed.
func (l *Loader) Import(path string) (*types.Package, error) {
	if pkg, ok := l.cache[path]; ok {
		return pkg, nil
	}
	if l.Module != "" && (path == l.Module || strings.HasPrefix(path, l.Module+"/")) {
		pkg := l.importModulePackage(path)
		l.cache[path] = pkg
		return pkg, nil
	}
	if l.std != nil {
		if pkg, err := l.std.Import(path); err == nil {
			l.cache[path] = pkg
			return pkg, nil
		}
	}
	pkg := fakePackage(path)
	l.cache[path] = pkg
	return pkg, nil
}

// importModulePackage type-checks one intra-module import from source.
func (l *Loader) importModulePackage(path string) *types.Package {
	rel := strings.TrimPrefix(strings.TrimPrefix(path, l.Module), "/")
	dir := filepath.Join(l.Root, filepath.FromSlash(rel))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return fakePackage(path)
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		f, err := l.parseFile(filepath.Join(dir, name))
		if err != nil {
			continue
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return fakePackage(path)
	}
	conf := types.Config{Importer: l, Error: func(error) {}}
	pkg, err := conf.Check(path, l.fset, files, nil)
	if err != nil && pkg == nil {
		return fakePackage(path)
	}
	return pkg
}

// fakePackage is the empty stand-in for an unresolvable import.
func fakePackage(path string) *types.Package {
	name := path
	if i := strings.LastIndex(path, "/"); i >= 0 {
		name = path[i+1:]
	}
	pkg := types.NewPackage(path, name)
	pkg.MarkComplete()
	return pkg
}
