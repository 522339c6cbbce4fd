package flow

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"

	"sdcmd/internal/lint"
)

// The walk: one flow-insensitive pass over each function body builds
// the node's call edges and its write-set summary together. It keeps
// the alias environment (what each local names; the last recorded
// alias wins, the precision the repo's kernel code needs), records
// write effects, resolves every call with the one resolver in call,
// and hatches each nested function literal as a node of its own.

// walker is the walk state of one node.
type walker struct {
	pr *program
	n  *node
}

func (w *walker) info() *types.Info { return w.n.pkg.Info }

// hatch makes a node for a function literal and walks its body. The
// caller decides whether the creator folds it in.
func (w *walker) hatch(lit *ast.FuncLit) *node {
	ln := newNode(w.n.pkg, w.n.file, lit, lit.Body, nil, lit.Type.Params)
	ln.display = "func literal at " + w.n.file.Rel + ":" + strconv.Itoa(w.pr.fset.Position(lit.Pos()).Line)
	ln.short = w.n.short
	ln.ctx = hasCtxParam(typeOf(w.info(), lit))
	w.pr.all = append(w.pr.all, ln)
	(&walker{pr: w.pr, n: ln}).block(lit.Body)
	return ln
}

// fold records a literal as run by this node, with unknown arguments.
func (w *walker) fold(ln *node) {
	w.n.calls = append(w.n.calls, edge{to: []target{{n: ln}}})
}

// dispatchMethods are the Pool entry points whose last argument is a
// worker body; the parameter conventions live in write.go.
var dispatchMethods = map[string]bool{
	"Run":                true,
	"ParallelFor":        true,
	"ParallelForDynamic": true,
	"ParallelForAtoms":   true,
}

// call walks one call expression, records its edge and returns the
// edge's targets. It is the one call resolver of the index:
//
//   - a declared function or concrete method resolves by its generic
//     origin's FullName, so f[T](…) reaches the generic declaration;
//   - an interface method bridges to the program's concrete methods;
//   - a func-typed struct field, or a local read from one, resolves
//     to every function the program stores in that field;
//   - a literal resolves when called in place or through the variable
//     it is bound to.
//
// Func-typed parameters and values from containers stay unresolved.
// Builtins and conversions make no edge; the writing builtins record
// their writes. Literal arguments fold into this node (whoever receives
// a closure may run it), and a literal handed to a Pool dispatch method
// as its last argument is registered as a worker body.
func (w *walker) call(x *ast.CallExpr, viaGo bool) []target {
	info := w.info()
	switch builtinName(info, x) {
	case "append":
		if len(x.Args) > 0 {
			w.recordWrite(&origin{kind: oWindow, base: w.originOf(x.Args[0])}, x.Pos())
		}
	case "copy":
		if len(x.Args) == 2 {
			dst := w.originOf(x.Args[0])
			if dst.kind != oWindow {
				dst = &origin{kind: oWindow, base: dst}
			}
			w.recordWrite(dst, x.Pos())
		}
	case "delete":
		if len(x.Args) == 2 {
			w.recordWrite(&origin{kind: oElem,
				base: w.originOf(x.Args[0]), index: w.originOf(x.Args[1])}, x.Pos())
		}
	}
	if builtinName(info, x) != "" || isConversion(info, x) {
		w.exprs(x.Args)
		return nil
	}

	var body *node // the literal passed last: a worker body if the callee dispatches
	for i, a := range x.Args {
		if lit, ok := a.(*ast.FuncLit); ok {
			ln := w.hatch(lit)
			w.fold(ln)
			if i == len(x.Args)-1 {
				body = ln
			}
			continue
		}
		w.expr(a)
	}
	// Argument origins, receiver first, against the current env.
	args := func(recv ast.Expr) []*origin {
		var out []*origin
		if recv != nil {
			out = append(out, w.originOf(recv))
		}
		for _, a := range x.Args {
			out = append(out, w.originOf(a))
		}
		return out
	}

	var to []target
	switch fun := lint.CallTarget(info, x.Fun).(type) {
	case *ast.FuncLit:
		to = []target{{n: w.hatch(fun), args: args(nil)}}
	case *ast.Ident:
		switch obj := info.Uses[fun].(type) {
		case *types.Func:
			to = w.pr.declared(obj, args(nil))
		case *types.Var:
			if ln := w.pr.lits[obj]; ln != nil {
				to = []target{{n: ln, args: args(nil)}}
			} else {
				to = w.pr.stored(w.pr.funcVars[obj], args(nil))
			}
		}
	case *ast.SelectorExpr:
		w.expr(fun.X)
		switch obj := info.Uses[fun.Sel].(type) {
		case *types.Func:
			recv := boundRecv(info, fun)
			if it := ifaceOf(obj); it != nil {
				to = w.pr.bridge(it, obj, args(recv))
			} else {
				to = w.pr.declared(obj, args(recv))
			}
			if body != nil && recv != nil && dispatchMethods[fun.Sel.Name] &&
				obj.Pkg() != nil && inPackage(obj.Pkg().Path(), "internal/strategy", "internal/core") {
				w.pr.dispatch = append(w.pr.dispatch, dispatchSite{method: fun.Sel.Name, body: body, file: w.n.file})
			}
		case *types.Var:
			to = w.pr.stored(fieldKey(obj), args(nil))
		}
	default:
		w.expr(fun)
	}
	if len(to) > 0 {
		w.n.calls = append(w.n.calls, edge{to: to, call: x, viaGo: viaGo})
	}
	return to
}

// goStmt records the launch site and the goroutine body, when the call
// resolves to exactly one.
func (w *walker) goStmt(s *ast.GoStmt) {
	site := goSite{launcher: w.n, pos: s.Pos()}
	if to := w.call(s.Call, true); len(to) == 1 {
		site.body = to[0].n
	}
	w.pr.sites = append(w.pr.sites, site)
}

func (w *walker) exprs(list []ast.Expr) {
	for _, e := range list {
		w.expr(e)
	}
}

// expr walks an expression for nested calls, literals and writes.
func (w *walker) expr(e ast.Expr) {
	switch x := e.(type) {
	case nil:
	case *ast.Ident:
		// A bound literal escaping by name (passed on, returned,
		// stored) may run anywhere: fold it.
		if vr, ok := w.info().Uses[x].(*types.Var); ok {
			if ln := w.pr.lits[vr]; ln != nil {
				w.fold(ln)
			}
		}
	case *ast.CallExpr:
		w.call(x, false)
	case *ast.FuncLit:
		w.fold(w.hatch(x))
	case *ast.ParenExpr:
		w.expr(x.X)
	case *ast.BinaryExpr:
		w.expr(x.X)
		w.expr(x.Y)
	case *ast.UnaryExpr:
		w.expr(x.X)
	case *ast.StarExpr:
		w.expr(x.X)
	case *ast.SelectorExpr:
		w.expr(x.X)
	case *ast.IndexExpr:
		w.expr(x.X)
		w.expr(x.Index)
	case *ast.IndexListExpr:
		w.expr(x.X)
	case *ast.SliceExpr:
		w.expr(x.X)
		w.expr(x.Low)
		w.expr(x.High)
		w.expr(x.Max)
	case *ast.TypeAssertExpr:
		w.expr(x.X)
	case *ast.CompositeLit:
		w.exprs(x.Elts)
	case *ast.KeyValueExpr:
		w.expr(x.Key)
		w.expr(x.Value)
	}
}

// bind records what a variable assigned from rhs may later call: the
// literal bound to it, or the func-typed field it was read from. It
// reports whether rhs was a literal it hatched; that literal needs no
// fold, since calls through the variable resolve to it precisely.
func (w *walker) bind(lh, rhs ast.Expr) bool {
	id, ok := lh.(*ast.Ident)
	if !ok {
		return false
	}
	vr := w.varOf(id)
	if vr == nil {
		return false
	}
	switch r := rhs.(type) {
	case *ast.FuncLit:
		w.pr.lits[vr] = w.hatch(r)
		return true
	case *ast.SelectorExpr:
		if v, ok := w.info().Uses[r.Sel].(*types.Var); ok && fieldKey(v).IsValid() {
			w.pr.funcVars[vr] = fieldKey(v)
		}
	}
	return false
}

// assign handles the := and = families, updating the environment for
// local bindings and recording effects for shared ones.
func (w *walker) assign(x *ast.AssignStmt) {
	aligned := len(x.Lhs) == len(x.Rhs)
	for i, r := range x.Rhs {
		if !aligned || !w.bind(x.Lhs[i], r) {
			w.expr(r)
		}
	}
	for i, lh := range x.Lhs {
		var rhs ast.Expr
		if aligned {
			rhs = x.Rhs[i]
		}
		if x.Tok == token.DEFINE {
			if id, ok := lh.(*ast.Ident); ok {
				if vr := w.varOf(id); vr != nil {
					w.n.env[vr] = w.originOf(rhs)
				}
			}
			continue
		}
		if _, isID := ast.Unparen(lh).(*ast.Ident); !isID {
			w.expr(lh)
		}
		w.store(lh, rhs, x.Tok)
	}
}

// store records a plain or compound assignment (or ++/--) to lh:
// rebinding a local updates its alias and writes nothing shared; a
// captured or global variable cell, or any element or field, is a
// write.
func (w *walker) store(lh, rhs ast.Expr, tok token.Token) {
	id, ok := ast.Unparen(lh).(*ast.Ident)
	if !ok {
		w.recordWrite(w.writeTarget(lh), lh.Pos())
		return
	}
	vr := w.varOf(id)
	if vr == nil || !w.isLocal(vr) {
		w.recordWrite(w.n.lookup(vr), id.Pos())
		return
	}
	if tok == token.ASSIGN && rhs != nil {
		if o := w.originOf(rhs); !(o.kind == oUnknown && w.selfAppend(rhs, vr)) {
			w.n.env[vr] = o
		}
	}
}

// selfAppend reports the pattern x = append(x, ...), whose alias for x
// is kept instead of degraded to unknown.
func (w *walker) selfAppend(rhs ast.Expr, vr *types.Var) bool {
	call, ok := ast.Unparen(rhs).(*ast.CallExpr)
	if !ok || builtinName(w.info(), call) != "append" || len(call.Args) == 0 {
		return false
	}
	id, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
	return ok && w.varOf(id) == vr
}

// valueSpec handles a local var declaration.
func (w *walker) valueSpec(vs *ast.ValueSpec) {
	aligned := len(vs.Values) == len(vs.Names)
	for i, v := range vs.Values {
		if !aligned || !w.bind(vs.Names[i], v) {
			w.expr(v)
		}
	}
	for i, nm := range vs.Names {
		vr := w.varOf(nm)
		if vr == nil {
			continue
		}
		if aligned {
			w.n.env[vr] = w.originOf(vs.Values[i])
		} else {
			w.n.env[vr] = &origin{kind: oLocal, vr: vr}
		}
	}
}

func (w *walker) block(b *ast.BlockStmt) {
	if b != nil {
		w.stmts(b.List)
	}
}

func (w *walker) stmts(list []ast.Stmt) {
	for _, s := range list {
		w.stmt(s)
	}
}

// stmt walks one statement.
func (w *walker) stmt(s ast.Stmt) {
	switch x := s.(type) {
	case nil:
	case *ast.BlockStmt:
		w.stmts(x.List)
	case *ast.ExprStmt:
		w.expr(x.X)
	case *ast.AssignStmt:
		w.assign(x)
	case *ast.IncDecStmt:
		w.expr(x.X)
		w.store(x.X, nil, x.Tok)
	case *ast.DeclStmt:
		if gd, ok := x.Decl.(*ast.GenDecl); ok {
			for _, sp := range gd.Specs {
				if vs, ok := sp.(*ast.ValueSpec); ok {
					w.valueSpec(vs)
				}
			}
		}
	case *ast.ForStmt:
		w.stmt(x.Init)
		// Loop-variable pattern: for i := lo; i < hi; ... gives i the
		// oLoop origin the confinement check understands.
		if init, ok := x.Init.(*ast.AssignStmt); ok && init.Tok == token.DEFINE &&
			len(init.Lhs) == 1 && len(init.Rhs) == 1 {
			if id, ok := init.Lhs[0].(*ast.Ident); ok {
				if cond, ok := x.Cond.(*ast.BinaryExpr); ok &&
					(cond.Op == token.LSS || cond.Op == token.LEQ) {
					if cid, ok := ast.Unparen(cond.X).(*ast.Ident); ok && cid.Name == id.Name {
						if vr := w.varOf(id); vr != nil {
							w.n.env[vr] = &origin{kind: oLoop,
								lo: w.originOf(init.Rhs[0]), hi: w.originOf(cond.Y)}
						}
					}
				}
			}
		}
		w.expr(x.Cond)
		w.stmt(x.Post)
		w.block(x.Body)
	case *ast.RangeStmt:
		w.expr(x.X)
		for _, e := range []ast.Expr{x.Key, x.Value} {
			if e == nil {
				continue
			}
			if id, ok := e.(*ast.Ident); ok {
				if vr := w.varOf(id); vr != nil && (x.Tok == token.DEFINE || w.isLocal(vr)) {
					w.n.env[vr] = unknownOrigin
					continue
				}
			}
			if x.Tok != token.DEFINE {
				// Range results assigned to an existing non-local lvalue.
				w.recordWrite(w.writeTarget(e), e.Pos())
			}
		}
		w.block(x.Body)
	case *ast.IfStmt:
		w.stmt(x.Init)
		w.expr(x.Cond)
		w.block(x.Body)
		w.stmt(x.Else)
	case *ast.SwitchStmt:
		w.stmt(x.Init)
		w.expr(x.Tag)
		w.block(x.Body)
	case *ast.TypeSwitchStmt:
		w.stmt(x.Init)
		w.stmt(x.Assign)
		w.block(x.Body)
	case *ast.CaseClause:
		w.exprs(x.List)
		w.stmts(x.Body)
	case *ast.SelectStmt:
		w.block(x.Body)
	case *ast.CommClause:
		w.stmt(x.Comm)
		w.stmts(x.Body)
	case *ast.ReturnStmt:
		w.exprs(x.Results)
	case *ast.DeferStmt:
		w.call(x.Call, false)
	case *ast.GoStmt:
		w.goStmt(x)
	case *ast.SendStmt:
		w.expr(x.Chan)
		w.expr(x.Value)
	case *ast.LabeledStmt:
		w.stmt(x.Stmt)
	}
}

// originOf names the value of an expression in this frame.
func (w *walker) originOf(e ast.Expr) *origin {
	if e == nil {
		return unknownOrigin
	}
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		if x.Name == "_" {
			return unknownOrigin
		}
		return w.n.lookup(w.varOf(x))
	case *ast.SelectorExpr:
		// pkg.Var reaches a global directly.
		if id, ok := ast.Unparen(x.X).(*ast.Ident); ok {
			if _, isPkg := w.info().Uses[id].(*types.PkgName); isPkg {
				if v, ok := w.info().Uses[x.Sel].(*types.Var); ok {
					return &origin{kind: oGlobal, vr: v}
				}
				return unknownOrigin
			}
		}
		if w.varOf(x.Sel) == nil {
			return unknownOrigin // method value or unresolved
		}
		return &origin{kind: oField, field: x.Sel.Name, base: w.originOf(x.X)}
	case *ast.IndexExpr:
		return &origin{kind: oElem, base: w.originOf(x.X), index: w.originOf(x.Index)}
	case *ast.SliceExpr:
		if x.Low == nil {
			return w.originOf(x.X) // x[:n] aliases x exactly
		}
		return &origin{kind: oWindow, base: w.originOf(x.X)}
	case *ast.StarExpr:
		return w.originOf(x.X)
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			return w.originOf(x.X)
		}
		return unknownOrigin
	case *ast.CompositeLit:
		return &origin{kind: oLocal}
	case *ast.CallExpr:
		if isConversion(w.info(), x) && len(x.Args) == 1 {
			return w.originOf(x.Args[0])
		}
		switch builtinName(w.info(), x) {
		case "make", "new":
			return &origin{kind: oLocal}
		case "append":
			if len(x.Args) > 0 {
				return w.originOf(x.Args[0]) // grown slice still aliases arg0's array
			}
		}
		return unknownOrigin
	}
	return unknownOrigin
}

// writeTarget names the location an assignment's left side stores into.
// Indexing into a value array (out[i][0] where out[i] is a [3]float64)
// peels to the slice level: the write lands in out's element i.
func (w *walker) writeTarget(e ast.Expr) *origin {
	switch x := ast.Unparen(e).(type) {
	case *ast.IndexExpr:
		if t := typeOf(w.info(), x.X); t != nil {
			if _, isArr := t.Underlying().(*types.Array); isArr {
				return w.writeTarget(x.X)
			}
		}
		return &origin{kind: oElem, base: w.originOf(x.X), index: w.originOf(x.Index)}
	case *ast.SliceExpr, *ast.SelectorExpr, *ast.StarExpr, *ast.Ident:
		return w.originOf(e)
	}
	return unknownOrigin
}

// recordWrite notes a write to a potentially shared location. Writes
// rooted in locals or unknowns are dropped (private, or the documented
// under-approximation).
func (w *walker) recordWrite(target *origin, pos token.Pos) {
	switch rootOf(target).kind {
	case oParam, oCaptured, oGlobal:
		w.n.addEffect(effect{target: target, pos: pos})
	}
}

// isLocal reports whether vr belongs to this node's function (param or
// local), as opposed to being captured or global.
func (w *walker) isLocal(vr *types.Var) bool {
	k := w.n.home(vr).kind
	return k == oParam || k == oLocal
}

// varOf resolves an identifier to its variable, or nil.
func (w *walker) varOf(id *ast.Ident) *types.Var {
	if v, ok := w.info().Uses[id].(*types.Var); ok {
		return v
	}
	v, _ := w.info().Defs[id].(*types.Var)
	return v
}
