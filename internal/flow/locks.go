package flow

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"sdcmd/internal/lint"
)

// lockPass builds the mutex acquisition-order graph and reports two
// defects: re-acquiring a lock class already held on the same path
// (self-deadlock), and cycles in the held→acquired order across the
// program (cross-goroutine deadlock). A lock class is a mutex the
// analysis can name stably across packages: a struct field
// ("pkg.Type.field") or a package-level variable ("pkg.var"); local
// mutexes are skipped. Acquisitions propagate through statically
// resolved calls, folded literals and bridged interface calls, but not
// through `go` edges — a spawned goroutine does not run under the
// launcher's held set.
type lockPass struct {
	sh *shared
}

func (p *lockPass) Name() string { return "lock-order" }

func (p *lockPass) Doc() string {
	return "mutex classes must be acquired in one global order and never re-acquired while held"
}

func (p *lockPass) Analyze(pkgs []*lint.Package) []lint.Finding {
	pr := p.sh.programFor(pkgs)

	// Fixpoint: the set of lock classes each node may acquire, itself
	// or transitively through calls it makes on the caller's thread.
	may := map[*node]map[string]bool{}
	for _, n := range pr.all {
		may[n] = directAcquires(n)
	}
	for changed := true; changed; {
		changed = false
		for _, n := range pr.all {
			for _, e := range n.calls {
				for _, t := range callees(e, true) {
					for c := range may[t.n] {
						if !may[n][c] {
							may[n][c] = true
							changed = true
						}
					}
				}
			}
		}
	}

	g := &lockGraph{edges: map[string]map[string]edgeWitness{}}
	var out []lint.Finding
	for _, n := range pr.all {
		s := &lockScan{pr: pr, n: n, may: may, g: g, out: &out, rule: p.Name(),
			at: map[*ast.CallExpr][]target{}}
		for _, e := range n.calls {
			if e.call != nil && !e.viaGo {
				s.at[e.call] = e.to
			}
		}
		s.stmts(n.body.List, map[string]token.Pos{})
	}
	out = append(out, g.cycles(pr, p.Name())...)
	return sortFindings(out)
}

// directAcquires returns the lock classes a node's own body acquires
// (nested literals excluded — they are their own nodes).
func directAcquires(n *node) map[string]bool {
	out := map[string]bool{}
	inspectSkipLits(n.body, func(nd ast.Node) bool {
		if c, ok := nd.(*ast.CallExpr); ok {
			if class, acq, ok := lockOp(n.pkg.Info, c); ok && acq {
				out[class] = true
			}
		}
		return true
	})
	return out
}

// edgeWitness records the first site that established a held→acquired
// edge, for the cycle report.
type edgeWitness struct {
	pos token.Pos
	fn  string
}

type lockGraph struct {
	edges map[string]map[string]edgeWitness
}

func (g *lockGraph) add(from, to string, pos token.Pos, fn string) {
	if from == to {
		return // re-acquisition is reported at the site, not as a cycle
	}
	m := g.edges[from]
	if m == nil {
		m = map[string]edgeWitness{}
		g.edges[from] = m
	}
	if _, ok := m[to]; !ok {
		m[to] = edgeWitness{pos: pos, fn: fn}
	}
}

// cycles reports one finding per strongly connected component of the
// acquisition graph with more than one class.
func (g *lockGraph) cycles(pr *program, rule string) []lint.Finding {
	classes := make([]string, 0, len(g.edges))
	seen := map[string]bool{}
	for from, m := range g.edges {
		if !seen[from] {
			seen[from] = true
			classes = append(classes, from)
		}
		for to := range m {
			if !seen[to] {
				seen[to] = true
				classes = append(classes, to)
			}
		}
	}
	sort.Strings(classes)

	// Tarjan's SCC, iterative over the sorted class list for
	// deterministic component order.
	index := map[string]int{}
	low := map[string]int{}
	onStack := map[string]bool{}
	var stack []string
	var comps [][]string
	next := 0
	var strongconnect func(v string)
	strongconnect = func(v string) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		tos := make([]string, 0, len(g.edges[v]))
		for to := range g.edges[v] {
			tos = append(tos, to)
		}
		sort.Strings(tos)
		for _, w := range tos {
			if _, ok := index[w]; !ok {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var comp []string
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comp = append(comp, w)
				if w == v {
					break
				}
			}
			if len(comp) > 1 {
				sort.Strings(comp)
				comps = append(comps, comp)
			}
		}
	}
	for _, c := range classes {
		if _, ok := index[c]; !ok {
			strongconnect(c)
		}
	}

	var out []lint.Finding
	for _, comp := range comps {
		in := map[string]bool{}
		for _, c := range comp {
			in[c] = true
		}
		// Collect the witness edges inside the component, sorted by
		// source position so the report and anchor are deterministic.
		type witness struct {
			from, to string
			w        edgeWitness
		}
		var ws []witness
		for _, from := range comp {
			for to, w := range g.edges[from] {
				if in[to] {
					ws = append(ws, witness{from, to, w})
				}
			}
		}
		sort.Slice(ws, func(i, j int) bool {
			if ws[i].from != ws[j].from {
				return ws[i].from < ws[j].from
			}
			return ws[i].to < ws[j].to
		})
		msg := "lock-order cycle: "
		for i, w := range ws {
			if i > 0 {
				msg += "; "
			}
			msg += fmt.Sprintf("%s → %s (%s, in %s)",
				shortClass(w.from), shortClass(w.to), pr.at(w.w.pos), shortClass(w.w.fn))
		}
		msg += " — acquire these mutexes in one global order"
		out = append(out, pr.finding(rule, ws[0].w.pos, msg))
	}
	return out
}

// lockScan tracks the held set through one node's statements.
type lockScan struct {
	pr   *program
	n    *node
	may  map[*node]map[string]bool
	g    *lockGraph
	out  *[]lint.Finding
	rule string
	at   map[*ast.CallExpr][]target // the node's call edges by call site
}

func (s *lockScan) stmts(list []ast.Stmt, held map[string]token.Pos) {
	for _, st := range list {
		s.stmt(st, held)
	}
}

func (s *lockScan) stmt(st ast.Stmt, held map[string]token.Pos) {
	switch st := st.(type) {
	case nil:
	case *ast.DeferStmt:
		if class, acq, ok := lockOp(s.n.pkg.Info, st.Call); ok {
			// A deferred unlock releases at return: the class stays
			// held for the rest of the body, which is exactly what the
			// held set models. A deferred lock is treated as immediate
			// (pathological, but conservative).
			if acq {
				s.acquire(class, st.Call.Pos(), held)
			}
			return
		}
		s.callsIn(st.Call, held)
	case *ast.GoStmt:
		// The spawned body runs outside this held set; argument
		// evaluation is on this path but never lock-relevant here.
	case *ast.IfStmt:
		s.stmt(st.Init, held)
		s.callsIn(st.Cond, held)
		then := cloneHeld(held)
		s.stmts(st.Body.List, then)
		alt := cloneHeld(held)
		if st.Else != nil {
			s.stmt(st.Else, alt)
		}
		mergeHeld(held, then, alt)
	case *ast.ForStmt:
		s.stmt(st.Init, held)
		s.callsIn(st.Cond, held)
		body := cloneHeld(held)
		s.stmts(st.Body.List, body)
		s.stmt(st.Post, body)
	case *ast.RangeStmt:
		s.callsIn(st.X, held)
		body := cloneHeld(held)
		s.stmts(st.Body.List, body)
	case *ast.SwitchStmt:
		s.stmt(st.Init, held)
		s.callsIn(st.Tag, held)
		for _, cl := range st.Body.List {
			if cc, ok := cl.(*ast.CaseClause); ok {
				s.stmts(cc.Body, cloneHeld(held))
			}
		}
	case *ast.TypeSwitchStmt:
		s.stmt(st.Init, held)
		for _, cl := range st.Body.List {
			if cc, ok := cl.(*ast.CaseClause); ok {
				s.stmts(cc.Body, cloneHeld(held))
			}
		}
	case *ast.SelectStmt:
		for _, cl := range st.Body.List {
			if cc, ok := cl.(*ast.CommClause); ok {
				h := cloneHeld(held)
				s.stmt(cc.Comm, h)
				s.stmts(cc.Body, h)
			}
		}
	case *ast.BlockStmt:
		s.stmts(st.List, held)
	case *ast.LabeledStmt:
		s.stmt(st.Stmt, held)
	default:
		s.callsIn(st, held)
	}
}

// callsIn handles every call expression inside an AST fragment in
// pre-order, skipping nested literals (their bodies are separate nodes)
// and `go` operands.
func (s *lockScan) callsIn(root ast.Node, held map[string]token.Pos) {
	if root == nil {
		return
	}
	ast.Inspect(root, func(nd ast.Node) bool {
		switch nd := nd.(type) {
		case *ast.FuncLit, *ast.GoStmt:
			return false
		case *ast.CallExpr:
			s.handleCall(nd, held)
		}
		return true
	})
}

func (s *lockScan) handleCall(c *ast.CallExpr, held map[string]token.Pos) {
	if class, acq, ok := lockOp(s.n.pkg.Info, c); ok {
		if acq {
			s.acquire(class, c.Pos(), held)
		} else {
			delete(held, class)
		}
		return
	}
	if len(held) == 0 {
		return
	}
	for _, t := range s.at[c] {
		for _, to := range sortedKeySlice(s.may[t.n]) {
			if prev, ok := held[to]; ok {
				*s.out = append(*s.out, s.pr.finding(s.rule, c.Pos(), fmt.Sprintf(
					"call to %s may re-acquire %s, already held since %s — release first or split the critical section",
					shortClass(t.n.display), shortClass(to), s.pr.at(prev))))
				continue
			}
			for h := range held {
				s.g.add(h, to, c.Pos(), s.n.display)
			}
		}
	}
}

func (s *lockScan) acquire(class string, pos token.Pos, held map[string]token.Pos) {
	if prev, ok := held[class]; ok {
		*s.out = append(*s.out, s.pr.finding(s.rule, pos, fmt.Sprintf(
			"%s re-acquired while already held since %s — self-deadlock",
			shortClass(class), s.pr.at(prev))))
		return
	}
	for h := range held {
		s.g.add(h, class, pos, s.n.display)
	}
	held[class] = pos
}

// lockOp classifies a call as a mutex acquire/release on a nameable
// lock class; ok is false for everything else (including local
// mutexes, which cannot participate in cross-function order).
func lockOp(info *types.Info, c *ast.CallExpr) (class string, acquire, ok bool) {
	sel, isSel := ast.Unparen(c.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", false, false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock":
		acquire = true
	case "Unlock", "RUnlock":
	default:
		return "", false, false
	}
	t := deref(typeOf(info, sel.X))
	if !isNamed(t, "sync", "Mutex") && !isNamed(t, "sync", "RWMutex") {
		return "", false, false
	}
	class = lockClass(info, sel.X)
	if class == "" {
		return "", false, false
	}
	return class, acquire, true
}

// lockClass names the mutex: "pkgPath.Type.field" for struct fields,
// "pkgPath.var" for package-level variables, "" otherwise.
func lockClass(info *types.Info, e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		fieldObj, _ := info.Uses[e.Sel].(*types.Var)
		if fieldObj == nil || !fieldObj.IsField() {
			return ""
		}
		owner, ok := deref(typeOf(info, e.X)).(*types.Named)
		if !ok || owner.Obj() == nil || owner.Obj().Pkg() == nil {
			return ""
		}
		return owner.Obj().Pkg().Path() + "." + owner.Obj().Name() + "." + fieldObj.Name()
	case *ast.Ident:
		vr, _ := info.Uses[e].(*types.Var)
		if vr == nil || vr.Pkg() == nil || vr.Parent() != vr.Pkg().Scope() {
			return ""
		}
		return vr.Pkg().Path() + "." + vr.Name()
	}
	return ""
}

func cloneHeld(held map[string]token.Pos) map[string]token.Pos {
	out := make(map[string]token.Pos, len(held))
	for k, v := range held {
		out[k] = v
	}
	return out
}

// mergeHeld replaces held with the intersection of the two branch
// outcomes: only classes held on every path stay held.
func mergeHeld(held, a, b map[string]token.Pos) {
	for k := range held {
		delete(held, k)
	}
	for k, v := range a {
		if _, ok := b[k]; ok {
			held[k] = v
		}
	}
}

func sortedKeySlice(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
