package mem

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strconv"
	"strings"

	"sdcmd/internal/flow"
	"sdcmd/internal/lint"
)

// access is one read or write of a nameable class: a struct field
// ("pkgPath.Type.field") or a package-level variable ("pkgPath.var").
// elem marks access through an index or pointer dereference — the
// element or pointee, not the header — so a plain read of a slice
// header never collides with atomic operations on its elements.
type access struct {
	class  string
	owner  string // "pkgPath.Type" for fields, "" for package variables
	elem   bool
	atomic bool
	read   bool
	write  bool
	cas    bool
	pos    token.Pos
	fn     *fnInfo
	// ctor marks accesses inside a constructor of the owning type (a
	// function returning it) or, for package variables, inside init:
	// single-threaded initialization before the value is shared.
	ctor bool
}

// fnInfo is one function body under analysis (declaration or literal).
type fnInfo struct {
	display  string
	pkg      *lint.Package
	file     *lint.SourceFile
	accesses []*access // in source order
	loops    []span    // for/range statement extents, literals excluded
	ctorOf   map[string]bool
	isInit   bool
}

type span struct{ pos, end token.Pos }

// classInfo aggregates every access to one class across the program.
type classInfo struct {
	name        string
	atomicSites []*access
	plainSites  []*access
	// mutable: a plain non-constructor write exists somewhere.
	mutable bool
	// mutableElem: an element/pointee write (plain or atomic) outside a
	// constructor exists — the class carries published payload.
	mutableElem bool
}

// index is the whole-program access database the three passes share.
type index struct {
	fset    *token.FileSet
	relOf   map[string]string
	fns     []*fnInfo
	classes map[string]*classInfo
	held    *flow.HeldIndex
}

func buildIndex(pkgs []*lint.Package) *index {
	ix := &index{
		relOf:   map[string]string{},
		classes: map[string]*classInfo{},
		held:    flow.HeldSpans(pkgs),
	}
	if len(pkgs) > 0 {
		ix.fset = pkgs[0].Fset
	}
	for _, p := range pkgs {
		for _, f := range p.Files {
			if f.Test {
				continue
			}
			ix.relOf[f.Path] = f.Rel
			for _, d := range f.AST.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn := &fnInfo{
					display: declDisplay(p, fd),
					pkg:     p,
					file:    f,
					ctorOf:  ctorTargets(p.Info, fd),
					isInit:  fd.Name.Name == "init" && fd.Recv == nil,
				}
				ix.fns = append(ix.fns, fn)
				w := &accWalker{ix: ix, fn: fn}
				w.stmts(fd.Body.List)
				collectLoops(fn, fd.Body)
			}
		}
	}
	for _, fn := range ix.fns {
		for _, a := range fn.accesses {
			ci := ix.classes[a.class]
			if ci == nil {
				ci = &classInfo{name: a.class}
				ix.classes[a.class] = ci
			}
			if a.atomic {
				ci.atomicSites = append(ci.atomicSites, a)
			} else {
				ci.plainSites = append(ci.plainSites, a)
			}
			if a.write && !a.ctor {
				if !a.atomic {
					ci.mutable = true
				}
				if a.elem {
					ci.mutableElem = true
				}
			}
		}
	}
	return ix
}

// finding builds a lint.Finding at pos.
func (ix *index) finding(rule string, pos token.Pos, msg string) lint.Finding {
	p := ix.fset.Position(pos)
	file := ix.relOf[p.Filename]
	if file == "" {
		file = p.Filename
	}
	return lint.Finding{File: file, Line: p.Line, Col: p.Column, Rule: rule, Message: msg}
}

// site renders "file:line" for cross-referencing one access in another
// access's message.
func (ix *index) site(pos token.Pos) string {
	p := ix.fset.Position(pos)
	file := ix.relOf[p.Filename]
	if file == "" {
		file = p.Filename
	}
	return file + ":" + strconv.Itoa(p.Line)
}

// accWalker records every class access of one function body.
type accWalker struct {
	ix *index
	fn *fnInfo
}

func (w *accWalker) stmts(list []ast.Stmt) {
	for _, s := range list {
		w.stmt(s)
	}
}

func (w *accWalker) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case nil:
	case *ast.AssignStmt:
		compound := s.Tok != token.ASSIGN && s.Tok != token.DEFINE
		for _, l := range s.Lhs {
			if s.Tok == token.DEFINE {
				continue // := defines locals; nothing nameable is written
			}
			w.lvalue(l, compound)
		}
		for _, r := range s.Rhs {
			w.value(r)
		}
	case *ast.IncDecStmt:
		w.lvalue(s.X, true)
	case *ast.ExprStmt:
		w.value(s.X)
	case *ast.SendStmt:
		w.value(s.Chan)
		w.value(s.Value)
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			w.value(e)
		}
	case *ast.IfStmt:
		w.stmt(s.Init)
		w.value(s.Cond)
		w.stmts(s.Body.List)
		w.stmt(s.Else)
	case *ast.ForStmt:
		w.stmt(s.Init)
		w.value(s.Cond)
		w.stmt(s.Post)
		w.stmts(s.Body.List)
	case *ast.RangeStmt:
		if s.Tok == token.ASSIGN {
			if s.Key != nil {
				w.lvalue(s.Key, false)
			}
			if s.Value != nil {
				w.lvalue(s.Value, false)
			}
		}
		w.value(s.X)
		w.stmts(s.Body.List)
	case *ast.SwitchStmt:
		w.stmt(s.Init)
		w.value(s.Tag)
		w.stmts(s.Body.List)
	case *ast.TypeSwitchStmt:
		w.stmt(s.Init)
		w.stmt(s.Assign)
		w.stmts(s.Body.List)
	case *ast.SelectStmt:
		w.stmts(s.Body.List)
	case *ast.CaseClause:
		for _, e := range s.List {
			w.value(e)
		}
		w.stmts(s.Body)
	case *ast.CommClause:
		w.stmt(s.Comm)
		w.stmts(s.Body)
	case *ast.BlockStmt:
		w.stmts(s.List)
	case *ast.LabeledStmt:
		w.stmt(s.Stmt)
	case *ast.DeferStmt:
		w.call(s.Call)
	case *ast.GoStmt:
		w.call(s.Call)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.value(v)
					}
				}
			}
		}
	}
}

// value walks an expression evaluated for its value, recording class
// reads.
func (w *accWalker) value(e ast.Expr) {
	switch e := ast.Unparen(e).(type) {
	case nil:
	case *ast.CallExpr:
		w.call(e)
	case *ast.FuncLit:
		w.hatch(e)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			// Address taken outside an atomic call: the alias may be
			// read or written anywhere; record a plain read of the
			// class and walk the components.
			if w.record(e.X, recRead, false) {
				w.parts(e.X)
				return
			}
		}
		w.value(e.X)
	case *ast.BinaryExpr:
		w.value(e.X)
		w.value(e.Y)
	case *ast.StarExpr, *ast.SelectorExpr, *ast.IndexExpr, *ast.Ident:
		if w.record(e.(ast.Expr), recRead, false) {
			w.parts(e.(ast.Expr))
			return
		}
		switch e := e.(type) {
		case *ast.StarExpr:
			w.value(e.X)
		case *ast.SelectorExpr:
			w.value(e.X)
		case *ast.IndexExpr:
			w.value(e.X)
			w.value(e.Index)
		}
	case *ast.SliceExpr:
		w.value(e.X)
		w.value(e.Low)
		w.value(e.High)
		w.value(e.Max)
	case *ast.TypeAssertExpr:
		w.value(e.X)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				w.value(kv.Value) // struct keys are field names, not reads
				continue
			}
			w.value(el)
		}
	case *ast.KeyValueExpr:
		w.value(e.Key)
		w.value(e.Value)
	case *ast.IndexListExpr:
		w.value(e.X)
	}
}

// lvalue records a write to the class named by e (if any) and walks the
// component expressions as values.
func (w *accWalker) lvalue(e ast.Expr, compound bool) {
	kind := recWrite
	if compound {
		kind = recRead | recWrite
	}
	w.record(e, kind, false)
	w.parts(e)
}

// parts walks the children of a recorded access expression: index
// operands and base chains are ordinary value reads of their own
// classes.
func (w *accWalker) parts(e ast.Expr) {
	switch e := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		w.value(e.X)
	case *ast.IndexExpr:
		w.value(e.X)
		w.value(e.Index)
	case *ast.StarExpr:
		w.value(e.X)
	}
}

type recKind int

const (
	recRead recKind = 1 << iota
	recWrite
	recCAS
)

// record appends an access for the class named by e; reports whether a
// class was named.
func (w *accWalker) record(e ast.Expr, kind recKind, isAtomic bool) bool {
	class, owner, elem := classOf(w.fn.pkg.Info, e)
	if class == "" {
		return false
	}
	a := &access{
		class:  class,
		owner:  owner,
		elem:   elem,
		atomic: isAtomic,
		read:   kind&recRead != 0,
		write:  kind&recWrite != 0,
		cas:    kind&recCAS != 0,
		pos:    e.Pos(),
		fn:     w.fn,
	}
	if owner != "" {
		a.ctor = w.fn.ctorOf[owner]
	} else {
		a.ctor = w.fn.isInit
	}
	w.fn.accesses = append(w.fn.accesses, a)
	return true
}

// call classifies atomic operations (sync/atomic package functions and
// methods on the typed atomics) and walks everything else normally.
func (w *accWalker) call(c *ast.CallExpr) {
	sel, isSel := ast.Unparen(c.Fun).(*ast.SelectorExpr)
	if isSel {
		info := w.fn.pkg.Info
		// sync/atomic package function: atomic.LoadInt64(&x), ...
		if fn, ok := info.Uses[sel.Sel].(*types.Func); ok &&
			fn.Pkg() != nil && fn.Pkg().Path() == "sync/atomic" && fn.Type() != nil {
			if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() == nil {
				if kind, ok := atomicFuncKind(sel.Sel.Name); ok && len(c.Args) > 0 {
					if addr, ok := ast.Unparen(c.Args[0]).(*ast.UnaryExpr); ok && addr.Op == token.AND {
						if w.record(addr.X, kind, true) {
							w.parts(addr.X)
						} else {
							w.value(addr.X)
						}
					} else {
						w.value(c.Args[0])
					}
					for _, a := range c.Args[1:] {
						w.value(a)
					}
					return
				}
			}
		}
		// Typed atomic method: x.count.Load(), q.buf[i].Store(v), ...
		if isAtomicType(deref(typeOf(info, sel.X))) {
			if kind, ok := atomicMethodKind(sel.Sel.Name); ok {
				if w.record(sel.X, kind, true) {
					w.parts(sel.X)
				} else {
					w.value(sel.X)
				}
				for _, a := range c.Args {
					w.value(a)
				}
				return
			}
		}
	}
	w.value(c.Fun)
	for _, a := range c.Args {
		w.value(a)
	}
}

// hatch analyzes a function literal as its own fnInfo (constructor
// status inherited: a closure made inside a constructor still runs
// before the value is shared only if the constructor invokes it, which
// the index does not track — inheriting is the conservative-enough
// choice the fixtures pin).
func (w *accWalker) hatch(lit *ast.FuncLit) {
	pos := w.ix.fset.Position(lit.Pos())
	fn := &fnInfo{
		display: "func literal at " + w.ix.relOf[pos.Filename] + ":" + strconv.Itoa(pos.Line),
		pkg:     w.fn.pkg,
		file:    w.fn.file,
		ctorOf:  w.fn.ctorOf,
		isInit:  w.fn.isInit,
	}
	w.ix.fns = append(w.ix.fns, fn)
	cw := &accWalker{ix: w.ix, fn: fn}
	cw.stmts(lit.Body.List)
	collectLoops(fn, lit.Body)
}

// collectLoops records the extents of every for/range statement in
// body, excluding nested literals (they are their own fnInfo).
func collectLoops(fn *fnInfo, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ForStmt:
			fn.loops = append(fn.loops, span{pos: n.Pos(), end: n.End()})
		case *ast.RangeStmt:
			fn.loops = append(fn.loops, span{pos: n.Pos(), end: n.End()})
		}
		return true
	})
}

// innermostLoop returns the smallest recorded loop containing pos, or
// a zero span when pos is in no loop.
func (fn *fnInfo) innermostLoop(pos token.Pos) (span, bool) {
	var best span
	found := false
	for _, l := range fn.loops {
		if l.pos <= pos && pos < l.end {
			if !found || l.end-l.pos < best.end-best.pos {
				best = l
				found = true
			}
		}
	}
	return best, found
}

// classOf names the class an expression accesses: struct fields become
// "pkgPath.Type.field", package-level variables "pkgPath.var"; index
// and dereference expressions name the base class with elem set.
// Locals, parameters and unresolvable expressions return "".
func classOf(info *types.Info, e ast.Expr) (class, owner string, elem bool) {
	switch e := ast.Unparen(e).(type) {
	case *ast.IndexExpr:
		c, o, _ := classOf(info, e.X)
		if c != "" {
			return c, o, true
		}
	case *ast.StarExpr:
		c, o, _ := classOf(info, e.X)
		if c != "" {
			return c, o, true
		}
	case *ast.SelectorExpr:
		v, _ := info.Uses[e.Sel].(*types.Var)
		if v == nil {
			return "", "", false
		}
		if v.IsField() {
			named, ok := deref(typeOf(info, e.X)).(*types.Named)
			if !ok || named.Obj() == nil || named.Obj().Pkg() == nil {
				return "", "", false
			}
			key := named.Obj().Pkg().Path() + "." + named.Obj().Name()
			return key + "." + v.Name(), key, false
		}
		if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return v.Pkg().Path() + "." + v.Name(), "", false
		}
	case *ast.Ident:
		v, _ := info.Uses[e].(*types.Var)
		if v == nil {
			v, _ = info.Defs[e].(*types.Var)
		}
		if v != nil && !v.IsField() && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return v.Pkg().Path() + "." + v.Name(), "", false
		}
	}
	return "", "", false
}

// ctorTargets returns the owner keys a function constructs: the named
// types (direct or pointed-to) among its results.
func ctorTargets(info *types.Info, fd *ast.FuncDecl) map[string]bool {
	out := map[string]bool{}
	if fd.Type.Results == nil {
		return out
	}
	for _, field := range fd.Type.Results.List {
		t := deref(typeOf(info, field.Type))
		if named, ok := t.(*types.Named); ok && named.Obj() != nil && named.Obj().Pkg() != nil {
			out[named.Obj().Pkg().Path()+"."+named.Obj().Name()] = true
		}
	}
	return out
}

// atomicFuncKind classifies a sync/atomic package function by name.
func atomicFuncKind(name string) (recKind, bool) {
	switch {
	case strings.HasPrefix(name, "Load"):
		return recRead, true
	case strings.HasPrefix(name, "Store"):
		return recWrite, true
	case strings.HasPrefix(name, "Add"), strings.HasPrefix(name, "Swap"),
		strings.HasPrefix(name, "And"), strings.HasPrefix(name, "Or"):
		return recRead | recWrite, true
	case strings.HasPrefix(name, "CompareAndSwap"):
		return recRead | recWrite | recCAS, true
	}
	return 0, false
}

// atomicMethodKind classifies a typed-atomic method by name.
func atomicMethodKind(name string) (recKind, bool) {
	switch name {
	case "Load":
		return recRead, true
	case "Store":
		return recWrite, true
	case "Add", "Swap", "And", "Or":
		return recRead | recWrite, true
	case "CompareAndSwap":
		return recRead | recWrite | recCAS, true
	}
	return 0, false
}

// isAtomicType reports a named type from sync/atomic (Int64, Uint32,
// Bool, Pointer, Value, ...).
func isAtomicType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "sync/atomic"
}

func typeOf(info *types.Info, e ast.Expr) types.Type {
	if tv, ok := info.Types[e]; ok {
		return tv.Type
	}
	return nil
}

func deref(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// shortClass compresses "sdcmd/internal/brokendeque.Deque.buf" to
// "brokendeque.Deque.buf" for messages.
func shortClass(c string) string {
	if i := strings.LastIndex(c, "/"); i >= 0 {
		return c[i+1:]
	}
	return c
}

// declDisplay renders a function declaration's readable name.
func declDisplay(p *lint.Package, fd *ast.FuncDecl) string {
	if fn, ok := p.Info.Defs[fd.Name].(*types.Func); ok {
		s := strings.NewReplacer("(", "", ")", "", "*", "").Replace(fn.FullName())
		return shortClass(s)
	}
	return p.Name + "." + fd.Name.Name
}

// sortFindings orders findings by position for deterministic output.
func sortFindings(fs []lint.Finding) []lint.Finding {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Message < b.Message
	})
	return fs
}
