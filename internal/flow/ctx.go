package flow

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"sdcmd/internal/lint"
)

// ctxPass checks that cancellation actually reaches the blocking
// operations behind the ctx-accepting entry points (StepCtx, RunCtx,
// the serve job handlers): in every function reachable from such an
// entry on the caller's thread, a channel send/receive, select,
// time.Sleep or WaitGroup/Cond wait must be escapable — inside a
// select that also has a default, a ctx.Done() case, or a bounded
// time-channel case — or it can wedge the entry past its context's
// cancellation. Receives from ctx.Done() itself and from time channels
// (timer.C, time.After) are bounded and allowed anywhere. `go` edges
// are not followed: a spawned goroutine blocks itself, not the entry
// (the goroutine-leak pass owns its lifetime).
type ctxPass struct {
	sh *shared
}

func (p *ctxPass) Name() string { return "ctx-propagation" }

func (p *ctxPass) Doc() string {
	return "blocking operations reachable from context-accepting entry points must be cancellable (ctx.Done/default/time-channel select) or carry a reasoned ignore"
}

func (p *ctxPass) Analyze(pkgs []*lint.Package) []lint.Finding {
	pr := p.sh.programFor(pkgs)
	// Each reachable node names the entry that first reached it as the
	// witness in messages.
	var entries []*node
	for _, n := range pr.all {
		if n.ctx {
			entries = append(entries, n)
		}
	}
	entryOf := pr.reach(entries, true)
	var out []lint.Finding
	for _, n := range pr.all {
		if entry, ok := entryOf[n]; ok {
			scanBlocking(pr, n, entry.display, &out, p.Name())
		}
	}
	return sortFindings(out)
}

// scanBlocking reports unescapable blocking operations in one node's
// body (nested literals are their own nodes and scanned separately
// when reachable).
func scanBlocking(pr *program, n *node, entry string, out *[]lint.Finding, rule string) {
	info := n.pkg.Info
	suffix := fmt.Sprintf(" in a function reachable from %s — select on ctx.Done() or annotate with a reasoned //lint:ignore", shortClass(entry))
	var walk func(nd ast.Node)
	walk = func(nd ast.Node) {
		ast.Inspect(nd, func(x ast.Node) bool {
			switch x := x.(type) {
			case *ast.FuncLit:
				return false
			case *ast.SelectStmt:
				if !selectEscapes(info, x) {
					*out = append(*out, pr.finding(rule, x.Pos(),
						"select with no default, ctx.Done() or time-channel case"+suffix))
				}
				// Walk only the clause bodies: the comm operations
				// belong to the select's own judgment above.
				for _, cl := range x.Body.List {
					if cc, ok := cl.(*ast.CommClause); ok {
						for _, s := range cc.Body {
							walk(s)
						}
					}
				}
				return false
			case *ast.SendStmt:
				*out = append(*out, pr.finding(rule, x.Pos(), "blocking channel send"+suffix))
				return true
			case *ast.UnaryExpr:
				if x.Op == token.ARROW && !isTimeChan(typeOf(info, x.X)) && !isCtxDone(info, x.X) {
					*out = append(*out, pr.finding(rule, x.Pos(), "blocking channel receive"+suffix))
				}
				return true
			case *ast.RangeStmt:
				if isChan(typeOf(info, x.X)) {
					*out = append(*out, pr.finding(rule, x.Pos(), "blocking range over channel"+suffix))
				}
				return true
			case *ast.CallExpr:
				if pkgFuncCall(info, x, "time", "Sleep") {
					*out = append(*out, pr.finding(rule, x.Pos(), "time.Sleep"+suffix))
					return true
				}
				if sel, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Wait" {
					t := typeOf(info, sel.X)
					if isWaitGroup(t) || isCond(t) {
						*out = append(*out, pr.finding(rule, x.Pos(), "unbounded Wait"+suffix))
					}
				}
				return true
			}
			return true
		})
	}
	walk(n.body)
}

// isCtxDone reports a ctx.Done() call expression: a receive from it is
// by definition cancellation-bounded.
func isCtxDone(info *types.Info, e ast.Expr) bool {
	c, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := ast.Unparen(c.Fun).(*ast.SelectorExpr)
	return ok && sel.Sel.Name == "Done" && isContext(typeOf(info, sel.X))
}

// selectEscapes reports whether a select has an escape clause: a
// default, a receive from ctx.Done(), or a receive from a bounded time
// channel.
func selectEscapes(info *types.Info, x *ast.SelectStmt) bool {
	for _, cl := range x.Body.List {
		cc, ok := cl.(*ast.CommClause)
		if !ok {
			continue
		}
		if cc.Comm == nil {
			return true // default clause
		}
		if ch := recvChan(cc.Comm); ch != nil && (isTimeChan(typeOf(info, ch)) || isCtxDone(info, ch)) {
			return true
		}
	}
	return false
}
