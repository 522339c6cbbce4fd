package flow

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strconv"
	"strings"

	"sdcmd/internal/lint"
)

// program is the whole-program index the flow passes share: one node
// per function declaration and function literal in the non-test files,
// call edges between them, every `go` statement, and a concrete-method
// index for bridging interface calls.
type program struct {
	pkgs  []*lint.Package
	fset  *token.FileSet
	nodes map[string]*node // FuncDecl nodes by types.Func FullName
	all   []*node          // every node, decls then hatched literals, in source order
	sites []goSite         // every `go` statement in non-test files
	relOf map[string]string

	// methodsByName indexes concrete (non-interface receiver) methods
	// by method name for interface bridging.
	methodsByName map[string][]methodInfo
	// methodSet maps a concrete receiver key (pkgPath.TypeName) to the
	// names of all its methods declared in the program.
	methodSet map[string]map[string]bool
}

// node is one function body under analysis.
type node struct {
	name    string // FullName for decls, synthetic for literals
	display string // human-readable name for messages
	pkg     *lint.Package
	file    *lint.SourceFile
	body    *ast.BlockStmt
	ctx     bool   // has a context.Context parameter
	recvKey string // pkgPath.TypeName for methods, "" otherwise
	calls   []edge
}

// edge is one call site inside a node. Exactly one of callee, lit and
// iface is set; unresolvable calls (func values from containers,
// externally-imported functions) carry none and are not followed.
type edge struct {
	callee string    // FullName of a statically resolved function
	lit    *node     // directly called or bound-and-called literal
	iface  *ifaceRef // interface method call, bridged at query time
	pos    token.Pos
	viaGo  bool // the call is the operand of a `go` statement
}

// ifaceRef identifies an interface method call for bridging.
type ifaceRef struct {
	iface    *types.Interface
	method   string
	nparams  int
	nresults int
}

// goSite is one `go` statement.
type goSite struct {
	launcher *node
	body     *node // resolved goroutine body, nil when unresolvable
	pos      token.Pos
}

// methodInfo is one concrete method declaration, for bridging.
type methodInfo struct {
	recvKey  string
	nparams  int
	nresults int
	node     *node
}

func buildProgram(pkgs []*lint.Package) *program {
	pr := &program{
		pkgs:          pkgs,
		nodes:         map[string]*node{},
		relOf:         map[string]string{},
		methodsByName: map[string][]methodInfo{},
		methodSet:     map[string]map[string]bool{},
	}
	if len(pkgs) > 0 {
		pr.fset = pkgs[0].Fset
	}
	// Phase 1: a node per FuncDecl, so `go pkg.F()` and `go x.m()`
	// resolve to bodies no matter the declaration order.
	for _, p := range pkgs {
		for _, f := range p.Files {
			if f.Test {
				continue
			}
			pr.relOf[f.Path] = f.Rel
			for _, d := range f.AST.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, _ := p.Info.Defs[fd.Name].(*types.Func)
				if fn == nil {
					continue // tolerant typecheck lost this decl
				}
				n := &node{
					name:    fn.FullName(),
					display: displayOf(fn.FullName()),
					pkg:     p,
					file:    f,
					body:    fd.Body,
					ctx:     hasCtxParam(fn.Type()),
				}
				if key, np, nr := recvInfo(fn.Type()); key != "" {
					n.recvKey = key
					mi := methodInfo{recvKey: key, nparams: np, nresults: nr, node: n}
					pr.methodsByName[fd.Name.Name] = append(pr.methodsByName[fd.Name.Name], mi)
					set := pr.methodSet[key]
					if set == nil {
						set = map[string]bool{}
						pr.methodSet[key] = set
					}
					set[fd.Name.Name] = true
				}
				pr.nodes[n.name] = n
				pr.all = append(pr.all, n)
			}
		}
	}
	// Phase 2: walk every decl body, recording call edges, hatching
	// literals and collecting `go` sites.
	for _, n := range pr.all[:len(pr.all):len(pr.all)] {
		w := &walker{pr: pr, n: n, lits: map[types.Object]*node{}}
		w.stmts(n.body.List)
	}
	return pr
}

// walker records the call edges of one node. Literals hatched inside
// the node become their own nodes, walked with a child walker that
// shares the literal-binding table (so `h := func(){}; go h()`
// resolves).
type walker struct {
	pr   *program
	n    *node
	lits map[types.Object]*node
}

func (w *walker) stmts(list []ast.Stmt) {
	for _, s := range list {
		w.stmt(s)
	}
}

func (w *walker) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case nil:
	case *ast.GoStmt:
		w.goStmt(s)
	case *ast.DeferStmt:
		w.call(s.Call, false)
	case *ast.ExprStmt:
		w.expr(s.X)
	case *ast.AssignStmt:
		w.assign(s)
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			w.expr(e)
		}
	case *ast.IfStmt:
		w.stmt(s.Init)
		w.expr(s.Cond)
		w.stmts(s.Body.List)
		w.stmt(s.Else)
	case *ast.ForStmt:
		w.stmt(s.Init)
		w.expr(s.Cond)
		w.stmt(s.Post)
		w.stmts(s.Body.List)
	case *ast.RangeStmt:
		w.expr(s.X)
		w.stmts(s.Body.List)
	case *ast.SwitchStmt:
		w.stmt(s.Init)
		w.expr(s.Tag)
		w.stmts(s.Body.List)
	case *ast.TypeSwitchStmt:
		w.stmt(s.Init)
		w.stmt(s.Assign)
		w.stmts(s.Body.List)
	case *ast.SelectStmt:
		w.stmts(s.Body.List)
	case *ast.CaseClause:
		for _, e := range s.List {
			w.expr(e)
		}
		w.stmts(s.Body)
	case *ast.CommClause:
		w.stmt(s.Comm)
		w.stmts(s.Body)
	case *ast.BlockStmt:
		w.stmts(s.List)
	case *ast.LabeledStmt:
		w.stmt(s.Stmt)
	case *ast.SendStmt:
		w.expr(s.Chan)
		w.expr(s.Value)
	case *ast.IncDecStmt:
		w.expr(s.X)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					w.valueSpec(vs)
				}
			}
		}
	}
}

func (w *walker) expr(e ast.Expr) {
	switch e := e.(type) {
	case nil:
	case *ast.CallExpr:
		w.call(e, false)
	case *ast.FuncLit:
		w.hatch(e)
	case *ast.UnaryExpr:
		w.expr(e.X)
	case *ast.BinaryExpr:
		w.expr(e.X)
		w.expr(e.Y)
	case *ast.ParenExpr:
		w.expr(e.X)
	case *ast.StarExpr:
		w.expr(e.X)
	case *ast.SelectorExpr:
		w.expr(e.X)
	case *ast.IndexExpr:
		w.expr(e.X)
		w.expr(e.Index)
	case *ast.SliceExpr:
		w.expr(e.X)
		w.expr(e.Low)
		w.expr(e.High)
		w.expr(e.Max)
	case *ast.TypeAssertExpr:
		w.expr(e.X)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			w.expr(el)
		}
	case *ast.KeyValueExpr:
		w.expr(e.Key)
		w.expr(e.Value)
	}
}

// assign walks an assignment and records literal bindings
// (`h := func(){...}`) so later `h()` / `go h()` calls resolve.
func (w *walker) assign(s *ast.AssignStmt) {
	for i, rhs := range s.Rhs {
		if lit, ok := rhs.(*ast.FuncLit); ok && i < len(s.Lhs) {
			if id, ok := s.Lhs[i].(*ast.Ident); ok {
				if obj := w.objOf(id); obj != nil {
					w.lits[obj] = w.hatch(lit)
					continue
				}
			}
		}
		w.expr(rhs)
	}
	for _, lhs := range s.Lhs {
		w.expr(lhs)
	}
}

func (w *walker) valueSpec(vs *ast.ValueSpec) {
	for i, rhs := range vs.Values {
		if lit, ok := rhs.(*ast.FuncLit); ok && i < len(vs.Names) {
			if obj, _ := w.n.pkg.Info.Defs[vs.Names[i]]; obj != nil {
				w.lits[obj] = w.hatch(lit)
				continue
			}
		}
		w.expr(rhs)
	}
}

// hatch makes a node for a function literal, records the fold edge
// from the enclosing node, and walks the literal body.
func (w *walker) hatch(lit *ast.FuncLit) *node {
	pos := w.pr.fset.Position(lit.Pos())
	ln := &node{
		name:    w.n.name + "·lit",
		display: "func literal at " + w.pr.relOf[pos.Filename] + ":" + strconv.Itoa(pos.Line),
		pkg:     w.n.pkg,
		file:    w.n.file,
		body:    lit.Body,
		ctx:     hasCtxParamExpr(w.n.pkg.Info, lit),
	}
	w.pr.all = append(w.pr.all, ln)
	w.n.calls = append(w.n.calls, edge{lit: ln, pos: lit.Pos()})
	cw := &walker{pr: w.pr, n: ln, lits: w.lits}
	cw.stmts(lit.Body.List)
	return ln
}

// goStmt records the launch site and resolves the goroutine body.
func (w *walker) goStmt(s *ast.GoStmt) {
	e := w.call(s.Call, true)
	site := goSite{launcher: w.n, pos: s.Pos()}
	if e != nil {
		switch {
		case e.lit != nil:
			site.body = e.lit
		case e.callee != "":
			site.body = w.pr.nodes[e.callee]
		}
	}
	w.pr.sites = append(w.pr.sites, site)
}

// call resolves one call expression to an edge and walks its operands.
// It returns the recorded edge (nil for builtins and conversions).
func (w *walker) call(c *ast.CallExpr, viaGo bool) *edge {
	for _, a := range c.Args {
		w.expr(a)
	}
	var e *edge
	switch fun := lint.CallTarget(w.n.pkg.Info, c.Fun).(type) {
	case *ast.FuncLit:
		ln := w.hatch(fun)
		// hatch records a fold edge; retag it as the call itself.
		last := &w.n.calls[len(w.n.calls)-1]
		last.viaGo = viaGo
		last.pos = c.Pos()
		_ = ln
		return last
	case *ast.Ident:
		obj := w.objOf(fun)
		switch obj := obj.(type) {
		case *types.Func:
			e = &edge{callee: obj.Origin().FullName(), pos: c.Pos(), viaGo: viaGo}
		case *types.Var:
			if ln := w.lits[obj]; ln != nil {
				e = &edge{lit: ln, pos: c.Pos(), viaGo: viaGo}
			}
		}
	case *ast.SelectorExpr:
		w.expr(fun.X)
		fn, _ := w.objOf(fun.Sel).(*types.Func)
		if fn == nil {
			break
		}
		sig, _ := fn.Type().(*types.Signature)
		if sig != nil && sig.Recv() != nil {
			if it, ok := sig.Recv().Type().Underlying().(*types.Interface); ok {
				e = &edge{
					iface: &ifaceRef{
						iface:    it,
						method:   fn.Name(),
						nparams:  sig.Params().Len(),
						nresults: sig.Results().Len(),
					},
					pos:   c.Pos(),
					viaGo: viaGo,
				}
				break
			}
		}
		e = &edge{callee: fn.Origin().FullName(), pos: c.Pos(), viaGo: viaGo}
	}
	if e == nil {
		return nil
	}
	w.n.calls = append(w.n.calls, *e)
	return &w.n.calls[len(w.n.calls)-1]
}

func (w *walker) objOf(id *ast.Ident) types.Object {
	if o := w.n.pkg.Info.Uses[id]; o != nil {
		return o
	}
	return w.n.pkg.Info.Defs[id]
}

// bridge resolves an interface method call to the program's concrete
// candidate methods: same name and arity, on a receiver type whose
// program-declared method set covers every method name of the
// interface. Name-and-arity matching (rather than types.Implements) is
// deliberate: the tolerant loader type-checks each package with its own
// instance of intra-package named types, so cross-instance Implements
// would spuriously fail; covering the full method-name set keeps
// single-method accidental matches rare. Externally-implemented
// interfaces have no program methods and bridge to nothing.
func (pr *program) bridge(ref *ifaceRef) []*node {
	want := make([]string, 0, ref.iface.NumMethods())
	for i := 0; i < ref.iface.NumMethods(); i++ {
		want = append(want, ref.iface.Method(i).Name())
	}
	var out []*node
	for _, mi := range pr.methodsByName[ref.method] {
		if mi.nparams != ref.nparams || mi.nresults != ref.nresults {
			continue
		}
		set := pr.methodSet[mi.recvKey]
		ok := true
		for _, name := range want {
			if !set[name] {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, mi.node)
		}
	}
	return out
}

// callees expands one edge to its target nodes, excluding `go` edges
// when joinOnly is set (goroutine bodies run outside the caller's
// blocking path and lock scope).
func (pr *program) callees(e edge, skipGo bool) []*node {
	if skipGo && e.viaGo {
		return nil
	}
	switch {
	case e.lit != nil:
		return []*node{e.lit}
	case e.callee != "":
		if n := pr.nodes[e.callee]; n != nil {
			return []*node{n}
		}
	case e.iface != nil:
		return pr.bridge(e.iface)
	}
	return nil
}

// finding builds a lint.Finding at pos for rule with message.
func (pr *program) finding(rule string, pos token.Pos, msg string) lint.Finding {
	p := pr.fset.Position(pos)
	file := pr.relOf[p.Filename]
	if file == "" {
		file = p.Filename
	}
	return lint.Finding{File: file, Line: p.Line, Col: p.Column, Rule: rule, Message: msg}
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
		return a.Col < b.Col
	})
	return fs
}

// --- small type helpers -------------------------------------------------

func hasCtxParam(t types.Type) bool {
	sig, _ := t.(*types.Signature)
	if sig == nil {
		return false
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if isContext(sig.Params().At(i).Type()) {
			return true
		}
	}
	return false
}

func hasCtxParamExpr(info *types.Info, lit *ast.FuncLit) bool {
	if tv, ok := info.Types[lit]; ok {
		return hasCtxParam(tv.Type)
	}
	return false
}

func isContext(t types.Type) bool {
	return isNamed(t, "context", "Context")
}

func isNamed(t types.Type, pkg, name string) bool {
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == pkg && obj.Name() == name
}

func deref(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// recvInfo returns the concrete-receiver key and arity for a method, or
// "" for plain functions and interface methods.
func recvInfo(t types.Type) (key string, nparams, nresults int) {
	sig, _ := t.(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return "", 0, 0
	}
	n, ok := deref(sig.Recv().Type()).(*types.Named)
	if !ok {
		return "", 0, 0
	}
	obj := n.Obj()
	if obj == nil || obj.Pkg() == nil {
		return "", 0, 0
	}
	return obj.Pkg().Path() + "." + obj.Name(), sig.Params().Len(), sig.Results().Len()
}

func isChan(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Chan)
	return ok
}

// isTimeChan reports a channel whose element type is time.Time — the
// shape of timer.C, ticker.C and time.After, all bounded waits.
func isTimeChan(t types.Type) bool {
	if t == nil {
		return false
	}
	ch, ok := t.Underlying().(*types.Chan)
	return ok && isNamed(ch.Elem(), "time", "Time")
}

func isWaitGroup(t types.Type) bool { return isNamed(deref(t), "sync", "WaitGroup") }
func isCond(t types.Type) bool      { return isNamed(deref(t), "sync", "Cond") }

// pkgFuncCall reports a call to pkgPath.name (e.g. time.Sleep) and is
// robust to dot-import-free code only, which is all this module has.
func pkgFuncCall(info *types.Info, c *ast.CallExpr, pkgPath, name string) bool {
	sel, ok := ast.Unparen(c.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	fn, _ := info.Uses[sel.Sel].(*types.Func)
	return fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == pkgPath
}

// shortClass compresses "example.com/mod/internal/serve.Scheduler.mu"
// to "serve.Scheduler.mu" for messages.
func shortClass(c string) string {
	if i := strings.LastIndex(c, "/"); i >= 0 {
		return c[i+1:]
	}
	return c
}

// displayOf turns a types.Func FullName like
// "(*example.com/mod/internal/md.Simulator).StepCtx" into the readable
// "md.Simulator.StepCtx" used in messages.
func displayOf(full string) string {
	s := strings.NewReplacer("(", "", ")", "", "*", "").Replace(full)
	return shortClass(s)
}
