package vet

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"sdcmd/internal/lint"
)

// The intraprocedural walk: one pass over a function body that builds
// the alias environment (what each local names), records write effects,
// links call sites, and hatches nested function literals as their own
// nodes. It is flow-insensitive — the last recorded alias for a local
// wins — which is the precision level the repo's kernel code needs and
// the caveats in the package comment document.

// originOf names the value of an expression in this frame.
func (fr *frame) originOf(e ast.Expr) *origin {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		if x.Name == "_" {
			return unknownOrigin
		}
		return fr.lookupVar(fr.varOf(x))
	case *ast.SelectorExpr:
		// pkg.Var reaches a global directly.
		if id, ok := ast.Unparen(x.X).(*ast.Ident); ok {
			if info := fr.info(); info != nil {
				if _, isPkg := info.Uses[id].(*types.PkgName); isPkg {
					if v, ok := info.Uses[x.Sel].(*types.Var); ok {
						return &origin{kind: oGlobal, vr: v}
					}
					return unknownOrigin
				}
			}
		}
		if fr.varOf(x.Sel) == nil {
			return unknownOrigin // method value or unresolved
		}
		return &origin{kind: oField, field: x.Sel.Name, base: fr.originOf(x.X)}
	case *ast.IndexExpr:
		return &origin{kind: oElem, base: fr.originOf(x.X), index: fr.originOf(x.Index)}
	case *ast.SliceExpr:
		if x.Low == nil {
			return fr.originOf(x.X) // x[:n] aliases x exactly
		}
		return &origin{kind: oWindow, base: fr.originOf(x.X)}
	case *ast.StarExpr:
		return fr.originOf(x.X)
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			return fr.originOf(x.X)
		}
		return unknownOrigin
	case *ast.CompositeLit:
		return &origin{kind: oLocal}
	case *ast.CallExpr:
		if fr.isConversion(x) && len(x.Args) == 1 {
			return fr.originOf(x.Args[0])
		}
		switch fr.builtinName(x) {
		case "make", "new":
			return &origin{kind: oLocal}
		case "append":
			if len(x.Args) > 0 {
				return fr.originOf(x.Args[0]) // grown slice still aliases arg0's array
			}
		}
		return unknownOrigin
	}
	return unknownOrigin
}

// writeTarget names the location an assignment's left side stores into.
// Indexing into a value array (out[i][0] where out[i] is a [3]float64)
// peels to the slice level: the write lands in out's element i.
func (fr *frame) writeTarget(e ast.Expr) *origin {
	switch x := ast.Unparen(e).(type) {
	case *ast.IndexExpr:
		if t := fr.typeOf(x.X); t != nil {
			if _, isArr := t.Underlying().(*types.Array); isArr {
				return fr.writeTarget(x.X)
			}
		}
		return &origin{kind: oElem, base: fr.originOf(x.X), index: fr.originOf(x.Index)}
	case *ast.SliceExpr, *ast.SelectorExpr, *ast.StarExpr, *ast.Ident:
		return fr.originOf(e)
	}
	return unknownOrigin
}

// recordWrite notes a write to a potentially shared location. Writes
// rooted in locals or unknowns are dropped (private, or the documented
// under-approximation).
func (fr *frame) recordWrite(target *origin, pos token.Pos) {
	switch rootOf(target).kind {
	case oParam, oCaptured, oGlobal:
		fr.node.addEffect(effect{target: target, pos: pos})
	}
}

// hatchLit turns a function literal into its own node and walks it.
func (fr *frame) hatchLit(lit *ast.FuncLit) *funcNode {
	n := &funcNode{
		display: fr.node.display,
		pkg:     fr.node.pkg,
		file:    fr.node.file,
		fn:      lit,
		body:    lit.Body,
		params:  litParams(fr.node.pkg, lit),
		keys:    map[string]bool{},
		env:     map[*types.Var]*origin{},
	}
	fr.an.all = append(fr.an.all, n)
	child := &frame{an: fr.an, node: n, parent: fr, lits: map[*types.Var]*funcNode{}}
	child.block(lit.Body)
	return n
}

// dispatchMethods are the Pool entry points whose last argument is a
// worker body; the parameter conventions live in worker.go.
var dispatchMethods = map[string]bool{
	"Run":                true,
	"ParallelFor":        true,
	"ParallelForStrided": true,
	"ParallelForAtoms":   true,
}

// poolPackage reports whether a package path hosts worker-dispatch
// types (strategy.Pool / strategy.Reducer / core.Parallelizer).
func poolPackage(path string) bool {
	return path == "internal/strategy" || strings.HasSuffix(path, "/internal/strategy") ||
		path == "internal/core" || strings.HasSuffix(path, "/internal/core")
}

// call processes one call expression: resolves the callee, records the
// call edge with caller-frame argument origins, folds literal arguments
// (whoever receives a closure may run it), models the writing builtins,
// and registers worker-dispatch sites.
func (fr *frame) call(x *ast.CallExpr) {
	// Builtins that write through their first argument.
	switch fr.builtinName(x) {
	case "append":
		if len(x.Args) > 0 {
			fr.recordWrite(&origin{kind: oWindow, base: fr.originOf(x.Args[0])}, x.Pos())
		}
		for _, a := range x.Args {
			fr.expr(a)
		}
		return
	case "copy":
		if len(x.Args) == 2 {
			dst := fr.originOf(x.Args[0])
			if dst.kind != oWindow {
				dst = &origin{kind: oWindow, base: dst}
			}
			fr.recordWrite(dst, x.Pos())
		}
		for _, a := range x.Args {
			fr.expr(a)
		}
		return
	case "delete":
		if len(x.Args) == 2 {
			fr.recordWrite(&origin{kind: oElem,
				base: fr.originOf(x.Args[0]), index: fr.originOf(x.Args[1])}, x.Pos())
		}
		for _, a := range x.Args {
			fr.expr(a)
		}
		return
	case "make", "new", "len", "cap", "clear":
		for _, a := range x.Args {
			fr.expr(a)
		}
		return
	}
	if fr.isConversion(x) {
		for _, a := range x.Args {
			fr.expr(a)
		}
		return
	}

	// Argument origins are snapshotted now, against the current env.
	argOrigins := func(recv ast.Expr) []*origin {
		var out []*origin
		if recv != nil {
			out = append(out, fr.originOf(recv))
		}
		for _, a := range x.Args {
			if _, isLit := a.(*ast.FuncLit); isLit {
				out = append(out, unknownOrigin)
			} else {
				out = append(out, fr.originOf(a))
			}
		}
		return out
	}

	info := fr.info()
	var litNodes []*funcNode
	for _, a := range x.Args {
		if lit, ok := a.(*ast.FuncLit); ok {
			n := fr.hatchLit(lit)
			litNodes = append(litNodes, n)
			// Conservative fold: assume the callee runs the closure.
			fr.node.calls = append(fr.node.calls, callSite{lit: n, pos: x.Pos()})
			continue
		}
		if id, ok := ast.Unparen(a).(*ast.Ident); ok {
			if vr := fr.varOf(id); vr != nil {
				if n := fr.litFor(vr); n != nil {
					// A bound closure escaping by name: fold it too.
					fr.node.calls = append(fr.node.calls, callSite{lit: n, pos: x.Pos()})
				}
			}
		}
		fr.expr(a)
	}

	switch fun := lint.CallTarget(info, x.Fun).(type) {
	case *ast.FuncLit:
		n := fr.hatchLit(fun)
		fr.node.calls = append(fr.node.calls, callSite{lit: n, args: argOrigins(nil), pos: x.Pos()})
		return
	case *ast.Ident:
		if info != nil {
			if fn, ok := info.Uses[fun].(*types.Func); ok && fn != nil {
				fr.node.calls = append(fr.node.calls,
					callSite{callee: fn.Origin().FullName(), args: argOrigins(nil), pos: x.Pos()})
				return
			}
		}
		if vr := fr.varOf(fun); vr != nil {
			if n := fr.litFor(vr); n != nil {
				fr.node.calls = append(fr.node.calls,
					callSite{lit: n, args: argOrigins(nil), pos: x.Pos()})
				return
			}
		}
		return // func-typed value we cannot resolve: assumed non-writing
	case *ast.SelectorExpr:
		fr.expr(fun.X)
		if info == nil {
			return
		}
		fn, ok := info.Uses[fun.Sel].(*types.Func)
		if !ok || fn == nil {
			return
		}
		recv := ast.Expr(fun.X)
		if id, isID := ast.Unparen(fun.X).(*ast.Ident); isID {
			if _, isPkg := info.Uses[id].(*types.PkgName); isPkg {
				recv = nil // package-qualified function, no receiver slot
			}
		}
		fr.node.calls = append(fr.node.calls,
			callSite{callee: fn.Origin().FullName(), args: argOrigins(recv), pos: x.Pos()})
		// Worker dispatch: Pool-family method, literal body last.
		if recv != nil && dispatchMethods[fun.Sel.Name] && fn.Pkg() != nil &&
			poolPackage(fn.Pkg().Path()) && len(litNodes) > 0 && len(x.Args) > 0 {
			if lit, isLit := x.Args[len(x.Args)-1].(*ast.FuncLit); isLit {
				body := litNodes[len(litNodes)-1]
				if body.fn == lit {
					fr.an.dispatch = append(fr.an.dispatch, dispatchSite{
						method: fun.Sel.Name, body: body, file: fr.node.file, pos: x.Pos()})
				}
			}
		}
	}
}

// expr walks an expression for nested calls, literals and writes.
func (fr *frame) expr(e ast.Expr) {
	switch x := e.(type) {
	case nil:
	case *ast.CallExpr:
		fr.call(x)
	case *ast.FuncLit:
		// A literal flowing somewhere untracked (returned, stored in a
		// struct): fold conservatively — someone may run it.
		n := fr.hatchLit(x)
		fr.node.calls = append(fr.node.calls, callSite{lit: n, pos: x.Pos()})
	case *ast.ParenExpr:
		fr.expr(x.X)
	case *ast.BinaryExpr:
		fr.expr(x.X)
		fr.expr(x.Y)
	case *ast.UnaryExpr:
		fr.expr(x.X)
	case *ast.StarExpr:
		fr.expr(x.X)
	case *ast.SelectorExpr:
		fr.expr(x.X)
	case *ast.IndexExpr:
		fr.expr(x.X)
		fr.expr(x.Index)
	case *ast.IndexListExpr:
		fr.expr(x.X)
	case *ast.SliceExpr:
		fr.expr(x.X)
		fr.expr(x.Low)
		fr.expr(x.High)
		fr.expr(x.Max)
	case *ast.TypeAssertExpr:
		fr.expr(x.X)
	case *ast.CompositeLit:
		for _, el := range x.Elts {
			fr.expr(el)
		}
	case *ast.KeyValueExpr:
		fr.expr(x.Key)
		fr.expr(x.Value)
	}
}

// assign handles := and = families, updating the environment for local
// bindings and recording effects for shared ones.
func (fr *frame) assign(x *ast.AssignStmt) {
	aligned := len(x.Lhs) == len(x.Rhs)
	// A literal bound straight to a fresh local gets no conservative
	// fold: its call sites resolve precisely through litFor, and a
	// blanket fold would double-report its writes with unknown args.
	boundLits := map[int]*funcNode{}
	for i, r := range x.Rhs {
		if lit, ok := r.(*ast.FuncLit); ok && x.Tok == token.DEFINE && aligned {
			if id, ok2 := x.Lhs[i].(*ast.Ident); ok2 && id.Name != "_" && fr.varOf(id) != nil {
				boundLits[i] = fr.hatchLit(lit)
				continue
			}
		}
		fr.expr(r)
	}
	for i, lh := range x.Lhs {
		var rhs ast.Expr
		if aligned {
			rhs = x.Rhs[i]
		}
		if x.Tok == token.DEFINE {
			id, ok := lh.(*ast.Ident)
			if !ok || id.Name == "_" {
				continue
			}
			vr := fr.varOf(id)
			if vr == nil {
				continue
			}
			if n := boundLits[i]; n != nil {
				fr.lits[vr] = n
				fr.node.env[vr] = &origin{kind: oLocal, vr: vr}
				continue
			}
			if rhs != nil {
				fr.node.env[vr] = fr.originOf(rhs)
			} else {
				fr.node.env[vr] = unknownOrigin
			}
			continue
		}
		// Plain or compound assignment.
		if id, ok := ast.Unparen(lh).(*ast.Ident); ok {
			if id.Name == "_" {
				continue
			}
			vr := fr.varOf(id)
			if vr != nil && fr.isLocalHere(vr) {
				// Rebinding a local: update the alias, no shared write.
				if x.Tok == token.ASSIGN && rhs != nil {
					if o := fr.originOf(rhs); !(o.kind == oUnknown && fr.sameVarOrigin(rhs, vr)) {
						fr.node.env[vr] = o
					}
				}
				continue
			}
			// Captured or global variable cell: that is a shared write.
			fr.recordWrite(fr.lookupVar(vr), id.Pos())
			continue
		}
		fr.recordWrite(fr.writeTarget(lh), lh.Pos())
	}
}

// sameVarOrigin reports the self-append pattern x = append(x, ...)
// so the alias for x is kept instead of degraded to unknown.
func (fr *frame) sameVarOrigin(rhs ast.Expr, vr *types.Var) bool {
	call, ok := ast.Unparen(rhs).(*ast.CallExpr)
	if !ok || fr.builtinName(call) != "append" || len(call.Args) == 0 {
		return false
	}
	id, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
	return ok && fr.varOf(id) == vr
}

// block walks a statement list.
func (fr *frame) block(b *ast.BlockStmt) {
	if b == nil {
		return
	}
	for _, s := range b.List {
		fr.stmt(s)
	}
}

// stmt walks one statement.
func (fr *frame) stmt(s ast.Stmt) {
	switch x := s.(type) {
	case nil:
	case *ast.BlockStmt:
		fr.block(x)
	case *ast.ExprStmt:
		fr.expr(x.X)
	case *ast.AssignStmt:
		fr.assign(x)
	case *ast.IncDecStmt:
		if id, ok := ast.Unparen(x.X).(*ast.Ident); ok {
			vr := fr.varOf(id)
			if vr != nil && fr.isLocalHere(vr) {
				return
			}
			fr.recordWrite(fr.lookupVar(vr), x.Pos())
			return
		}
		fr.recordWrite(fr.writeTarget(x.X), x.Pos())
	case *ast.DeclStmt:
		gd, ok := x.Decl.(*ast.GenDecl)
		if !ok {
			return
		}
		for _, sp := range gd.Specs {
			vs, ok := sp.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for _, v := range vs.Values {
				fr.expr(v)
			}
			for i, nm := range vs.Names {
				vr := fr.varOf(nm)
				if vr == nil {
					continue
				}
				if len(vs.Values) == len(vs.Names) {
					fr.node.env[vr] = fr.originOf(vs.Values[i])
				} else {
					fr.node.env[vr] = &origin{kind: oLocal, vr: vr}
				}
			}
		}
	case *ast.ForStmt:
		fr.stmt(x.Init)
		// Loop-variable pattern: for i := lo; i < hi; ... gives i the
		// oLoop origin the confinement check understands.
		if init, ok := x.Init.(*ast.AssignStmt); ok && init.Tok == token.DEFINE &&
			len(init.Lhs) == 1 && len(init.Rhs) == 1 {
			if id, ok := init.Lhs[0].(*ast.Ident); ok {
				if cond, ok := x.Cond.(*ast.BinaryExpr); ok &&
					(cond.Op == token.LSS || cond.Op == token.LEQ) {
					if cid, ok := ast.Unparen(cond.X).(*ast.Ident); ok && cid.Name == id.Name {
						if vr := fr.varOf(id); vr != nil {
							fr.node.env[vr] = &origin{kind: oLoop,
								lo: fr.originOf(init.Rhs[0]), hi: fr.originOf(cond.Y)}
						}
					}
				}
			}
		}
		fr.expr(x.Cond)
		fr.stmt(x.Post)
		fr.block(x.Body)
	case *ast.RangeStmt:
		fr.expr(x.X)
		if x.Tok == token.DEFINE {
			for _, e := range []ast.Expr{x.Key, x.Value} {
				if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
					if vr := fr.varOf(id); vr != nil {
						fr.node.env[vr] = unknownOrigin
					}
				}
			}
		} else {
			// Assigning range results to existing non-local lvalues.
			for _, e := range []ast.Expr{x.Key, x.Value} {
				if e == nil {
					continue
				}
				if id, ok := e.(*ast.Ident); ok {
					if vr := fr.varOf(id); vr != nil && fr.isLocalHere(vr) {
						fr.node.env[vr] = unknownOrigin
						continue
					}
				}
				fr.recordWrite(fr.writeTarget(e), e.Pos())
			}
		}
		fr.block(x.Body)
	case *ast.IfStmt:
		fr.stmt(x.Init)
		fr.expr(x.Cond)
		fr.block(x.Body)
		fr.stmt(x.Else)
	case *ast.SwitchStmt:
		fr.stmt(x.Init)
		fr.expr(x.Tag)
		for _, c := range x.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				for _, e := range cc.List {
					fr.expr(e)
				}
				for _, st := range cc.Body {
					fr.stmt(st)
				}
			}
		}
	case *ast.TypeSwitchStmt:
		fr.stmt(x.Init)
		fr.stmt(x.Assign)
		for _, c := range x.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				for _, st := range cc.Body {
					fr.stmt(st)
				}
			}
		}
	case *ast.SelectStmt:
		for _, c := range x.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				fr.stmt(cc.Comm)
				for _, st := range cc.Body {
					fr.stmt(st)
				}
			}
		}
	case *ast.ReturnStmt:
		for _, r := range x.Results {
			fr.expr(r)
		}
	case *ast.DeferStmt:
		fr.call(x.Call)
	case *ast.GoStmt:
		fr.call(x.Call)
	case *ast.SendStmt:
		fr.expr(x.Chan)
		fr.expr(x.Value)
	case *ast.LabeledStmt:
		fr.stmt(x.Stmt)
	}
}
