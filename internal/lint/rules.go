package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"
)

// DefaultRules returns the six SDC source disciplines with their
// production configuration. Tests may construct individual rules with
// different allow lists.
func DefaultRules() []Rule {
	return []Rule{
		&PoolOnlyGo{Allowed: []string{
			"internal/strategy/pool.go",
			// The guard watchdog's runner/reaper goroutines are
			// supervisor control plane, not force-loop parallelism; the
			// force sweeps they drive still run under the pool.
			"internal/guard/watchdog.go",
			// The telemetry HTTP listener and JSONL streamer goroutines
			// are observability control plane serving requests/snapshots
			// concurrently with the simulation; no force-loop work runs
			// on them.
			"internal/telemetry/",
			// The job service's shard workers and HTTP accept loop are
			// scheduler/transport control plane: each shard runs whole
			// jobs sequentially, and every force sweep inside a job
			// still routes through strategy.Pool.
			"internal/serve/",
		}},
		&CSOnlyAtomics{Allowed: []string{
			"internal/strategy/cs.go",
			// Telemetry counters are lock-free observability
			// infrastructure read by concurrent HTTP/stream snapshots —
			// not a priced reduction strategy competing with CS.
			"internal/telemetry/",
		}},
		&FloatCompare{},
		&UncheckedError{ExemptDirs: []string{"examples/"}},
		&KernelDeterminism{Kernels: []string{
			"internal/core/",
			"internal/force/",
			"internal/neighbor/",
			"internal/strategy/",
			"internal/vec/",
		}},
		&NoPanic{},
	}
}

// PathAllowed reports whether rel matches an allow-list entry: an exact
// file path, or a directory prefix (entry ending in "/"). Both sides
// are normalized to forward slashes first, so a backslash-separated rel
// (a Windows filepath.Rel that bypassed the loader) and an allow-list
// entry written with backslashes match their slash-separated twins.
func PathAllowed(rel string, allowed []string) bool {
	rel = normRel(rel)
	for _, a := range allowed {
		a = normRel(a)
		if rel == a || (strings.HasSuffix(a, "/") && strings.HasPrefix(rel, a)) {
			return true
		}
	}
	return false
}

func newFinding(p *Package, f *SourceFile, pos token.Pos, rule, msg string) Finding {
	position := p.Fset.Position(pos)
	return Finding{File: f.Rel, Line: position.Line, Col: position.Column, Rule: rule, Message: msg}
}

// exprName renders a call target compactly for messages.
func exprName(e ast.Expr) string {
	switch v := e.(type) {
	case *ast.Ident:
		return v.Name
	case *ast.SelectorExpr:
		return exprName(v.X) + "." + v.Sel.Name
	case *ast.CallExpr:
		return exprName(v.Fun)
	case *ast.IndexExpr:
		return exprName(v.X)
	case *ast.ParenExpr:
		return exprName(v.X)
	}
	return "expression"
}

// pkgNameOf resolves an identifier to the import path of the package it
// names, or "" if it is not a package qualifier. Falls back to the
// file's import table when type information is unavailable.
func pkgNameOf(p *Package, f *SourceFile, id *ast.Ident) string {
	if obj, ok := p.Info.Uses[id]; ok {
		if pn, ok := obj.(*types.PkgName); ok {
			return pn.Imported().Path()
		}
		return ""
	}
	for _, imp := range f.AST.Imports {
		path := strings.Trim(imp.Path.Value, `"`)
		name := path
		if i := strings.LastIndex(path, "/"); i >= 0 {
			name = path[i+1:]
		}
		if imp.Name != nil {
			name = imp.Name.Name
		}
		if name == id.Name {
			return path
		}
	}
	return ""
}

// CallTarget returns a call's callee expression with parentheses and
// any explicit instantiation stripped: for f[T](…) or pkg.f[T, U](…) it
// is the Ident or SelectorExpr that info.Uses resolves to the generic
// function. An index into a slice or map of funcs is a value, not an
// instantiation, and comes back as it is.
func CallTarget(info *types.Info, fun ast.Expr) ast.Expr {
	fun = ast.Unparen(fun)
	var x ast.Expr
	switch ix := fun.(type) {
	case *ast.IndexExpr:
		x = ast.Unparen(ix.X)
	case *ast.IndexListExpr:
		x = ast.Unparen(ix.X)
	default:
		return fun
	}
	id, _ := x.(*ast.Ident)
	if sel, ok := x.(*ast.SelectorExpr); ok {
		id = sel.Sel
	}
	if info == nil || id == nil {
		return fun
	}
	if _, generic := info.Uses[id].(*types.Func); !generic {
		return fun
	}
	return x
}

// ---------------------------------------------------------------------------

// PoolOnlyGo (R1) forbids raw `go` statements outside the worker pool:
// every worker-level parallelism in the SDC engine must route through
// strategy.Pool, because the coloring proof (§II.B) is stated against
// the pool's striding and barriers. A stray goroutine writing
// rho[]/force[] is exactly the race the paper's schedule makes
// impossible.
type PoolOnlyGo struct {
	// Allowed lists rel paths (files, or directories with a trailing
	// "/") where go statements are legitimate.
	Allowed []string
}

// Name implements Rule.
func (r *PoolOnlyGo) Name() string { return "pool-only-go" }

// Doc implements Rule.
func (r *PoolOnlyGo) Doc() string {
	return "worker parallelism must route through strategy.Pool; no raw go statements elsewhere"
}

// Check implements Rule.
func (r *PoolOnlyGo) Check(p *Package) []Finding {
	var out []Finding
	for _, f := range p.Files {
		if f.Test || PathAllowed(f.Rel, r.Allowed) {
			continue
		}
		ast.Inspect(f.AST, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				out = append(out, newFinding(p, f, g.Pos(), r.Name(),
					"raw go statement outside strategy.Pool — route parallelism through the pool so the SDC schedule audit covers it"))
			}
			return true
		})
	}
	return out
}

// ---------------------------------------------------------------------------

// CSOnlyAtomics (R2) confines sync/atomic to the critical-section
// reducer. The paper's taxonomy (§I) treats atomics as one priced
// synchronization strategy, not a free utility: an atomic sneaking into
// another reducer silently changes the cost model and hides scheduling
// bugs the checked reducer would otherwise surface.
type CSOnlyAtomics struct {
	// Allowed lists rel paths where sync/atomic may be imported.
	Allowed []string
}

// Name implements Rule.
func (r *CSOnlyAtomics) Name() string { return "cs-only-atomics" }

// Doc implements Rule.
func (r *CSOnlyAtomics) Doc() string {
	return "sync/atomic is confined to the CS reducer; other strategies must stay atomics-free"
}

// Check implements Rule.
func (r *CSOnlyAtomics) Check(p *Package) []Finding {
	var out []Finding
	for _, f := range p.Files {
		if f.Test || PathAllowed(f.Rel, r.Allowed) {
			continue
		}
		for _, imp := range f.AST.Imports {
			if strings.Trim(imp.Path.Value, `"`) == "sync/atomic" {
				out = append(out, newFinding(p, f, imp.Pos(), r.Name(),
					"sync/atomic imported outside the CS reducer — atomics are a priced strategy, not a utility"))
			}
		}
	}
	return out
}

// ---------------------------------------------------------------------------

// FloatCompare (R3) forbids == and != on floating-point operands in
// non-test code. Reduction order differs between strategies (that is
// the whole point of the paper), so exact float equality silently
// couples correctness to a schedule; comparisons must use a tolerance
// helper. Two IEEE-exact idioms stay legal: comparison against the
// constant zero (the "unset option" sentinel) and x != x (the NaN
// test).
type FloatCompare struct{}

// Name implements Rule.
func (r *FloatCompare) Name() string { return "float-compare" }

// Doc implements Rule.
func (r *FloatCompare) Doc() string {
	return "no ==/!= on float operands outside tests; use a tolerance helper"
}

// Check implements Rule.
func (r *FloatCompare) Check(p *Package) []Finding {
	var out []Finding
	for _, f := range p.Files {
		if f.Test {
			continue
		}
		ast.Inspect(f.AST, func(n ast.Node) bool {
			b, ok := n.(*ast.BinaryExpr)
			if !ok || (b.Op != token.EQL && b.Op != token.NEQ) {
				return true
			}
			tx, okx := p.Info.Types[b.X]
			ty, oky := p.Info.Types[b.Y]
			if !okx || !oky || (!isFloat(tx.Type) && !isFloat(ty.Type)) {
				return true
			}
			if isExactZero(tx) || isExactZero(ty) {
				return true // zero is the IEEE-exact "unset" sentinel
			}
			if tx.Value != nil && ty.Value != nil {
				return true // constant fold: evaluated at compile time
			}
			if isNaNIdiom(p, b) {
				return true
			}
			out = append(out, newFinding(p, f, b.OpPos, r.Name(),
				b.Op.String()+" on float operands — reduction order is strategy-dependent; compare with a tolerance"))
			return true
		})
	}
	return out
}

func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	basic, ok := t.Underlying().(*types.Basic)
	return ok && basic.Info()&types.IsFloat != 0
}

// isExactZero reports a compile-time constant equal to zero.
func isExactZero(tv types.TypeAndValue) bool {
	if tv.Value == nil {
		return false
	}
	switch tv.Value.Kind() {
	case constant.Int, constant.Float:
		return constant.Sign(tv.Value) == 0
	}
	return false
}

// isNaNIdiom recognizes x != x / x == x on one identifier.
func isNaNIdiom(p *Package, b *ast.BinaryExpr) bool {
	x, okx := b.X.(*ast.Ident)
	y, oky := b.Y.(*ast.Ident)
	if !okx || !oky {
		return false
	}
	ox, oy := p.Info.Uses[x], p.Info.Uses[y]
	return ox != nil && ox == oy
}

// ---------------------------------------------------------------------------

// UncheckedError (R4) forbids silently dropping an error result in
// non-test, non-example code: the value must be handled or explicitly
// discarded with `_ =`. fmt.Print/Printf/Println to stdout are exempt —
// CLI diagnostics are best-effort and process exit codes carry failure.
type UncheckedError struct {
	// ExemptDirs lists rel-path prefixes (e.g. "examples/") excluded
	// from the rule.
	ExemptDirs []string
}

// Name implements Rule.
func (r *UncheckedError) Name() string { return "unchecked-error" }

// Doc implements Rule.
func (r *UncheckedError) Doc() string {
	return "error results must be handled or explicitly discarded with _ ="
}

// Check implements Rule.
func (r *UncheckedError) Check(p *Package) []Finding {
	var out []Finding
	for _, f := range p.Files {
		if f.Test || PathAllowed(f.Rel, r.ExemptDirs) {
			continue
		}
		ast.Inspect(f.AST, func(n ast.Node) bool {
			var call *ast.CallExpr
			switch s := n.(type) {
			case *ast.ExprStmt:
				call, _ = s.X.(*ast.CallExpr)
			case *ast.DeferStmt:
				call = s.Call
			case *ast.GoStmt:
				call = s.Call
			}
			if call == nil || !r.returnsError(p, call) || r.exemptCall(p, f, call) {
				return true
			}
			out = append(out, newFinding(p, f, call.Pos(), r.Name(),
				"result of "+exprName(call.Fun)+" contains an error that is silently dropped — handle it or assign to _"))
			return true
		})
	}
	return out
}

// returnsError reports whether any result of the call is an error.
// Missing type information means "unknown", never a finding.
func (r *UncheckedError) returnsError(p *Package, call *ast.CallExpr) bool {
	tv, ok := p.Info.Types[call]
	if !ok || tv.Type == nil {
		return false
	}
	errType := types.Universe.Lookup("error").Type()
	if tuple, ok := tv.Type.(*types.Tuple); ok {
		for i := 0; i < tuple.Len(); i++ {
			if types.Identical(tuple.At(i).Type(), errType) {
				return true
			}
		}
		return false
	}
	return types.Identical(tv.Type, errType)
}

// exemptCall allows the best-effort stdout printers.
func (r *UncheckedError) exemptCall(p *Package, f *SourceFile, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok || pkgNameOf(p, f, id) != "fmt" {
		return false
	}
	switch sel.Sel.Name {
	case "Print", "Printf", "Println":
		return true
	}
	return false
}

// ---------------------------------------------------------------------------

// KernelDeterminism (R5) bans wall-clock and random-number use inside
// the force/neighbor/core kernels. Reproducibility is a correctness
// tool here: the strategy cross-checks (serial vs SDC vs SAP vs RC) and
// the checked reducer all rely on kernels being pure functions of their
// inputs, so the same lattice always produces the same sweep.
type KernelDeterminism struct {
	// Kernels lists rel-path directory prefixes that must stay
	// deterministic.
	Kernels []string
}

// Name implements Rule.
func (r *KernelDeterminism) Name() string { return "kernel-determinism" }

// Doc implements Rule.
func (r *KernelDeterminism) Doc() string {
	return "no time.Now or math/rand inside force/neighbor/core kernels"
}

// Check implements Rule.
func (r *KernelDeterminism) Check(p *Package) []Finding {
	var out []Finding
	for _, f := range p.Files {
		if f.Test || !PathAllowed(f.Rel, r.Kernels) {
			continue
		}
		for _, imp := range f.AST.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			if path == "math/rand" || path == "math/rand/v2" {
				out = append(out, newFinding(p, f, imp.Pos(), r.Name(),
					"math/rand imported in a kernel package — kernels must be deterministic"))
			}
		}
		ast.Inspect(f.AST, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "Now" {
				return true
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok || pkgNameOf(p, f, id) != "time" {
				return true
			}
			out = append(out, newFinding(p, f, sel.Pos(), r.Name(),
				"time.Now in a kernel package — kernels must be pure functions of their inputs"))
			return true
		})
	}
	return out
}

// ---------------------------------------------------------------------------

// NoPanic (R6) forbids panic in library packages outside Must*
// constructors. Library callers get errors; panic is reserved for the
// documented Must* wrappers over compile-time-constant arguments.
type NoPanic struct{}

// Name implements Rule.
func (r *NoPanic) Name() string { return "no-panic" }

// Doc implements Rule.
func (r *NoPanic) Doc() string {
	return "library packages return errors; panic only inside Must* constructors"
}

// Check implements Rule.
func (r *NoPanic) Check(p *Package) []Finding {
	if p.Name == "main" {
		return nil
	}
	var out []Finding
	for _, f := range p.Files {
		if f.Test {
			continue
		}
		for _, decl := range f.AST.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && strings.HasPrefix(fd.Name.Name, "Must") {
				continue
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				id, ok := call.Fun.(*ast.Ident)
				if !ok || id.Name != "panic" {
					return true
				}
				if obj, recorded := p.Info.Uses[id]; recorded {
					if _, builtin := obj.(*types.Builtin); !builtin {
						return true // a shadowing local named panic
					}
				}
				out = append(out, newFinding(p, f, call.Pos(), r.Name(),
					"panic in a library package outside a Must* constructor — return an error"))
				return true
			})
		}
	}
	return out
}
