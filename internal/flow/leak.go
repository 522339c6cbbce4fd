package flow

import (
	"go/ast"
	"go/token"
	"go/types"

	"sdcmd/internal/lint"
)

// leakPass checks that every `go` statement has provable join/stop
// evidence: something in the goroutine body (or in a function it
// directly calls) guarantees the goroutine can be waited for or told
// to exit. The accepted shapes are the ones this codebase actually
// uses — WaitGroup.Done, a completion close(ch), a stop-channel select
// whose case returns, a range over a closable channel, and a result
// send the launcher receives. A `go` whose body cannot be resolved
// statically is reported too: an unprovable lifetime is the finding.
type leakPass struct {
	sh *shared
}

func (p *leakPass) Name() string { return "goroutine-leak" }

func (p *leakPass) Doc() string {
	return "every go statement needs provable join/stop evidence (WaitGroup.Done, completion close, stop-channel select, channel range, or a result send the launcher receives)"
}

func (p *leakPass) Analyze(pkgs []*lint.Package) []lint.Finding {
	pr := p.sh.programFor(pkgs)
	var out []lint.Finding
	for _, site := range pr.sites {
		if site.body == nil {
			out = append(out, pr.finding(p.Name(), site.pos,
				"goroutine body cannot be resolved statically, so its lifetime is unprovable; launch a named function or literal, or annotate with a reasoned //lint:ignore"))
			continue
		}
		if joinEvidence(pr, site.body, site.launcher) {
			continue
		}
		ok := false
		for _, e := range site.body.calls {
			for _, t := range callees(e, true) {
				ok = ok || joinEvidence(pr, t.n, site.launcher)
			}
		}
		if !ok {
			out = append(out, pr.finding(p.Name(), site.pos,
				"goroutine has no provable join or stop: no WaitGroup.Done, completion close, stop-channel select, channel range, or result send received by the launcher; bound its lifetime or annotate with a reasoned //lint:ignore"))
		}
	}
	return sortFindings(out)
}

// joinEvidence scans a goroutine body (excluding nested literals, which
// are their own launches or callees) for any accepted lifetime proof.
func joinEvidence(pr *program, g *node, launcher *node) bool {
	info := g.pkg.Info
	found := false
	inspectSkipLits(g.body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			// close(ch): the goroutine signals completion.
			if builtinName(info, n) == "close" && len(n.Args) == 1 && isChan(typeOf(info, n.Args[0])) {
				found = true
				return false
			}
			// wg.Done(): the launcher can wg.Wait().
			if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Done" {
				if isWaitGroup(typeOf(info, sel.X)) {
					found = true
					return false
				}
			}
		case *ast.SelectStmt:
			// A select with a receive case that returns: a stop channel.
			for _, cl := range n.Body.List {
				cc, ok := cl.(*ast.CommClause)
				if !ok || recvChan(cc.Comm) == nil {
					continue
				}
				if containsReturn(cc.Body) {
					found = true
					return false
				}
			}
		case *ast.RangeStmt:
			// for x := range ch: terminates when the channel closes.
			if isChan(typeOf(info, n.X)) {
				found = true
				return false
			}
		case *ast.SendStmt:
			// ch <- result where the launcher receives from ch: the
			// buffered-handoff watchdog shape.
			if vr := chanVar(info, n.Chan); vr != nil && receivesFrom(launcher, vr) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// receivesFrom reports whether the launcher's body (nested literals
// included — a companion goroutine draining the channel still bounds
// the sender) contains a receive from the channel variable vr.
func receivesFrom(launcher *node, vr *types.Var) bool {
	if launcher == nil {
		return false
	}
	info := launcher.pkg.Info
	found := false
	ast.Inspect(launcher.body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && chanVar(info, n.X) == vr {
				found = true
				return false
			}
		case *ast.RangeStmt:
			if chanVar(info, n.X) == vr {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// chanVar resolves a channel expression (ident or field selector) to
// its variable, or nil.
func chanVar(info *types.Info, e ast.Expr) *types.Var {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if vr, ok := info.Uses[e].(*types.Var); ok && isChan(vr.Type()) {
			return vr
		}
	case *ast.SelectorExpr:
		if vr, ok := info.Uses[e.Sel].(*types.Var); ok && isChan(vr.Type()) {
			return vr
		}
	}
	return nil
}

// recvChan returns the channel a select comm receives from (with or
// without assignment), nil for a send or anything else.
func recvChan(s ast.Stmt) ast.Expr {
	var e ast.Expr
	switch s := s.(type) {
	case *ast.ExprStmt:
		e = s.X
	case *ast.AssignStmt:
		if len(s.Rhs) == 1 {
			e = s.Rhs[0]
		}
	}
	if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.ARROW {
		return u.X
	}
	return nil
}

// containsReturn reports a return statement anywhere in stmts, not
// descending into nested function literals.
func containsReturn(stmts []ast.Stmt) bool {
	found := false
	for _, s := range stmts {
		inspectSkipLits(s, func(n ast.Node) bool {
			if _, ok := n.(*ast.ReturnStmt); ok {
				found = true
				return false
			}
			return !found
		})
	}
	return found
}

// inspectSkipLits is ast.Inspect that does not descend into function
// literals: a nested literal is its own node with its own obligations.
func inspectSkipLits(root ast.Node, f func(ast.Node) bool) {
	ast.Inspect(root, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if n == nil {
			return true
		}
		return f(n)
	})
}
