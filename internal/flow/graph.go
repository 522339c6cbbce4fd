package flow

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"sort"
	"strconv"
	"strings"

	"sdcmd/internal/lint"
)

// program is the one whole-program index every call-graph pass reads,
// built once per load: a node per function declaration and function
// literal in the non-test files, each node's call edges and write-set
// summary, every `go` statement, and every worker body handed to a pool.
type program struct {
	fset  *token.FileSet
	nodes map[string]*node // declarations by types.Func FullName
	all   []*node          // declarations in source order, then literals as the walk hatches them
	relOf map[string]string

	sites    []goSite
	dispatch []dispatchSite

	// methodsByName indexes concrete (non-interface receiver) methods
	// by method name for interface bridging.
	methodsByName map[string][]methodInfo
	// methodSet maps a concrete receiver key (pkgPath.TypeName) to the
	// names of all its methods declared in the program.
	methodSet map[string]map[string]bool
	// fields maps a func-typed struct field, by the position of its
	// declaration (which every type-check of its package shares), to
	// the functions the program stores in it.
	fields map[token.Pos][]fieldFunc
	// lits and funcVars map a variable to the literal bound to it, or
	// to the func-typed field it was read from, so calls through the
	// variable resolve.
	lits     map[*types.Var]*node
	funcVars map[*types.Var]token.Pos
}

// node is one function body: a declaration or a function literal.
type node struct {
	display string // qualified name for messages: "md.Simulator.StepCtx", "func literal at f.go:12"
	short   string // the enclosing declaration's bare name: "Compute"
	pkg     *lint.Package
	file    *lint.SourceFile
	fn      ast.Node // *ast.FuncDecl or *ast.FuncLit
	body    *ast.BlockStmt
	params  []*types.Var // receiver first; nil for an unnamed parameter
	ctx     bool         // has a context.Context parameter
	calls   []edge

	// The write-set summary: what the node may write, in terms of its
	// parameters, captured variables and globals (see summary.go), and
	// the alias environment of its locals.
	effects []effect
	keys    map[effectKey]bool
	env     map[*types.Var]*origin
}

// edge is one resolved call site, or a literal folded into the node
// that creates it (call nil): a closure handed on, returned or stored
// may run wherever it goes, so its creator answers for it.
type edge struct {
	to    []target
	call  *ast.CallExpr
	viaGo bool // the call is the operand of a `go` statement
}

// target is one node an edge may run, with the caller-frame origins of
// the receiver and arguments lined up with its parameters; nil args
// substitute every parameter to unknown. folded counts the target's
// effects the write-set fixpoint has already substituted.
type target struct {
	n      *node
	args   []*origin
	folded int
}

// goSite is one `go` statement.
type goSite struct {
	launcher *node
	body     *node // the one body the call resolves to, nil otherwise
	pos      token.Pos
}

// dispatchSite is one worker-body literal handed to a Pool method.
type dispatchSite struct {
	method string
	body   *node
	file   *lint.SourceFile
}

// methodInfo is one concrete method declaration, for bridging.
type methodInfo struct {
	recvKey  string
	nparams  int
	nresults int
	node     *node
}

// fieldFunc is one function stored in a func-typed field; bound marks
// a method value, whose receiver the call does not pass.
type fieldFunc struct {
	name  string
	bound bool
}

func buildProgram(pkgs []*lint.Package) *program {
	pr := &program{
		nodes:         map[string]*node{},
		relOf:         map[string]string{},
		methodsByName: map[string][]methodInfo{},
		methodSet:     map[string]map[string]bool{},
		fields:        map[token.Pos][]fieldFunc{},
		lits:          map[*types.Var]*node{},
		funcVars:      map[*types.Var]token.Pos{},
	}
	if len(pkgs) > 0 {
		pr.fset = pkgs[0].Fset
	}
	// Phase 1: a node per declaration, the method index and the field
	// stores, so every call in phase 2 resolves whatever the order of
	// declarations.
	for _, p := range pkgs {
		for _, f := range p.Files {
			if f.Test {
				continue // test files carry no type info (see lint.Load)
			}
			pr.relOf[f.Path] = f.Rel
			pr.storeFuncs(p.Info, f.AST)
			for _, d := range f.AST.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, _ := p.Info.Defs[fd.Name].(*types.Func)
				if fn == nil {
					continue // tolerant typecheck lost this decl
				}
				n := newNode(p, f, fd, fd.Body, fd.Recv, fd.Type.Params)
				n.display, n.short = displayOf(fn.FullName()), fd.Name.Name
				n.ctx = hasCtxParam(fn.Type())
				if key, np, nr := recvInfo(fn.Type()); key != "" {
					mi := methodInfo{recvKey: key, nparams: np, nresults: nr, node: n}
					pr.methodsByName[fd.Name.Name] = append(pr.methodsByName[fd.Name.Name], mi)
					set := pr.methodSet[key]
					if set == nil {
						set = map[string]bool{}
						pr.methodSet[key] = set
					}
					set[fd.Name.Name] = true
				}
				pr.nodes[fn.FullName()] = n
				pr.all = append(pr.all, n)
			}
		}
	}
	// Phase 2: walk every declaration, hatching its literals, then
	// propagate the write sets over the edges.
	for _, n := range pr.all[:len(pr.all):len(pr.all)] {
		(&walker{pr: pr, n: n}).block(n.body)
	}
	pr.fixpoint()
	return pr
}

func newNode(p *lint.Package, f *lint.SourceFile, fn ast.Node, body *ast.BlockStmt, recv, params *ast.FieldList) *node {
	return &node{
		pkg:    p,
		file:   f,
		fn:     fn,
		body:   body,
		params: append(paramVars(p.Info, recv), paramVars(p.Info, params)...),
		keys:   map[effectKey]bool{},
		env:    map[*types.Var]*origin{},
	}
}

// paramVars lists a field list's variables in order, with nil for an
// unnamed parameter so indices line up with call arguments.
func paramVars(info *types.Info, fl *ast.FieldList) []*types.Var {
	if fl == nil {
		return nil
	}
	var out []*types.Var
	for _, f := range fl.List {
		if len(f.Names) == 0 {
			out = append(out, nil)
			continue
		}
		for _, nm := range f.Names {
			v, _ := info.Defs[nm].(*types.Var)
			out = append(out, v)
		}
	}
	return out
}

// storeFuncs records every declared function, method expression and
// method value one file stores in a func-typed field: as a composite
// literal element (package-level initializers included) or by
// assignment to the field.
func (pr *program) storeFuncs(info *types.Info, f *ast.File) {
	store := func(field types.Object, v ast.Expr) {
		fv, _ := field.(*types.Var)
		k := fieldKey(fv)
		fn, bound := funcValue(info, v)
		if !k.IsValid() || fn == nil {
			return
		}
		if ff := (fieldFunc{fn.Origin().FullName(), bound}); !slices.Contains(pr.fields[k], ff) {
			pr.fields[k] = append(pr.fields[k], ff)
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			var st *types.Struct
			if t := typeOf(info, n); t != nil {
				st, _ = deref(t).Underlying().(*types.Struct)
			}
			for i, el := range n.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					if id, ok := kv.Key.(*ast.Ident); ok {
						store(info.Uses[id], kv.Value)
					}
				} else if st != nil && i < st.NumFields() {
					store(st.Field(i), el)
				}
			}
		case *ast.AssignStmt:
			for i, lh := range n.Lhs {
				if sel, ok := ast.Unparen(lh).(*ast.SelectorExpr); ok && len(n.Lhs) == len(n.Rhs) {
					store(info.Uses[sel.Sel], n.Rhs[i])
				}
			}
		}
		return true
	})
}

// fieldKey identifies a func-typed struct field, or is NoPos for any
// other variable.
func fieldKey(v *types.Var) token.Pos {
	if v == nil || !v.IsField() {
		return token.NoPos
	}
	if _, ok := v.Type().Underlying().(*types.Signature); !ok {
		return token.NoPos
	}
	return v.Origin().Pos()
}

// funcValue names the function a func-valued expression denotes: a
// declared function, a method expression T.m, or a method value x.m,
// for which bound is set. Anything else is nil.
func funcValue(info *types.Info, v ast.Expr) (fn *types.Func, bound bool) {
	switch v := lint.CallTarget(info, v).(type) {
	case *ast.Ident:
		fn, _ = info.Uses[v].(*types.Func)
	case *ast.SelectorExpr:
		fn, _ = info.Uses[v.Sel].(*types.Func)
		bound = boundRecv(info, v) != nil
	}
	return fn, bound
}

// boundRecv returns the receiver a function selector binds: x for a
// method call or value x.m, nil for pkg.F and for a method expression
// T.m, whose receiver is its first argument.
func boundRecv(info *types.Info, sel *ast.SelectorExpr) ast.Expr {
	if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok {
		if _, isPkg := info.Uses[id].(*types.PkgName); isPkg {
			return nil
		}
	}
	if tv, ok := info.Types[sel.X]; ok && tv.IsType() {
		return nil
	}
	return sel.X
}

// declared resolves a call of a declared function or concrete method,
// by its generic origin's FullName.
func (pr *program) declared(fn *types.Func, args []*origin) []target {
	if n := pr.nodes[fn.Origin().FullName()]; n != nil {
		return []target{{n: n, args: args}}
	}
	return nil
}

// stored resolves a call of a func-typed field to every function the
// program stores in it. A method value carries its own receiver, so
// the call's arguments do not line up with its parameters.
func (pr *program) stored(field token.Pos, args []*origin) []target {
	var out []target
	for _, ff := range pr.fields[field] {
		if n := pr.nodes[ff.name]; n != nil {
			a := args
			if ff.bound {
				a = nil
			}
			out = append(out, target{n: n, args: a})
		}
	}
	return out
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
func (pr *program) bridge(it *types.Interface, fn *types.Func, args []*origin) []target {
	sig := fn.Type().(*types.Signature)
	var out []target
	for _, mi := range pr.methodsByName[fn.Name()] {
		if mi.nparams != sig.Params().Len() || mi.nresults != sig.Results().Len() {
			continue
		}
		set := pr.methodSet[mi.recvKey]
		ok := true
		for i := 0; i < it.NumMethods() && ok; i++ {
			ok = set[it.Method(i).Name()]
		}
		if ok {
			out = append(out, target{n: mi.node, args: args})
		}
	}
	return out
}

// callees returns an edge's targets, none for a `go` edge when skipGo
// is set: a goroutine body runs outside its launcher's blocking path
// and lock scope.
func callees(e edge, skipGo bool) []target {
	if skipGo && e.viaGo {
		return nil
	}
	return e.to
}

// reach walks the call graph breadth-first from roots and maps every
// node it reaches, roots included, to the root that reached it first.
func (pr *program) reach(roots []*node, skipGo bool) map[*node]*node {
	from := map[*node]*node{}
	var queue []*node
	for _, r := range roots {
		if from[r] == nil {
			from[r] = r
			queue = append(queue, r)
		}
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, e := range n.calls {
			for _, t := range callees(e, skipGo) {
				if from[t.n] == nil {
					from[t.n] = from[n]
					queue = append(queue, t.n)
				}
			}
		}
	}
	return from
}

// rel maps a file name to its path relative to the linted root.
func (pr *program) rel(filename string) string {
	if r, ok := pr.relOf[filename]; ok {
		return r
	}
	return filename
}

// at renders pos as "file:line" for messages.
func (pr *program) at(pos token.Pos) string {
	p := pr.fset.Position(pos)
	return pr.rel(p.Filename) + ":" + strconv.Itoa(p.Line)
}

// finding builds a lint.Finding at pos for rule with message.
func (pr *program) finding(rule string, pos token.Pos, msg string) lint.Finding {
	p := pr.fset.Position(pos)
	return lint.Finding{File: pr.rel(p.Filename), Line: p.Line, Col: p.Column, Rule: rule, Message: msg}
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

// inPackage reports whether an import path ends in one of dirs, so
// "internal/strategy" matches both "sdcmd/internal/strategy" and a
// fixture module's copy.
func inPackage(path string, dirs ...string) bool {
	for _, d := range dirs {
		if path == d || strings.HasSuffix(path, "/"+d) {
			return true
		}
	}
	return false
}

// builtinName returns the builtin a call invokes, "" for anything else
// (a shadowing declaration included).
func builtinName(info *types.Info, call *ast.CallExpr) string {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			return b.Name()
		}
	}
	return ""
}

// isConversion reports whether call is a type conversion.
func isConversion(info *types.Info, call *ast.CallExpr) bool {
	tv, ok := info.Types[call.Fun]
	return ok && tv.IsType()
}

func typeOf(info *types.Info, e ast.Expr) types.Type {
	if tv, ok := info.Types[e]; ok {
		return tv.Type
	}
	return nil
}

// ifaceOf returns the interface a method is declared on, nil for a
// concrete method or a plain function.
func ifaceOf(fn *types.Func) *types.Interface {
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return nil
	}
	it, _ := sig.Recv().Type().Underlying().(*types.Interface)
	return it
}

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
