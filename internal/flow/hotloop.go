package flow

import (
	"fmt"
	"go/ast"
	"go/types"

	"sdcmd/internal/lint"
)

// hotRootNames are the entry points of the per-step kernel work: the
// force computations and the reduction sweeps. Everything reachable
// from them runs once per timestep over every atom or pair. The names
// are roots only where the kernels live, in internal/force and
// internal/strategy: a Compute elsewhere is not a kernel.
var hotRootNames = map[string]bool{
	"Compute":     true,
	"SweepScalar": true,
	"SweepVector": true,
}

// hotLoopPass flags per-iteration costs inside loops of kernel-hot
// functions: allocations (make, new, growing append, interface
// boxing), defer, and map iteration. None of these appear in the
// paper's per-sweep cost model, and each one silently turns an O(1)
// loop body into an allocating or nondeterministic one.
type hotLoopPass struct {
	sh *shared
}

func (p *hotLoopPass) Name() string { return "hot-loop" }

func (p *hotLoopPass) Doc() string {
	return "no allocation, defer, or map iteration inside loops of functions reachable from Compute or the force sweeps"
}

func (p *hotLoopPass) Analyze(pkgs []*lint.Package) []lint.Finding {
	pr := p.sh.programFor(pkgs)
	hot := pr.reach(hotRoots(pr), false)
	var out []lint.Finding
	for _, n := range pr.all {
		if root, ok := hot[n]; ok {
			p.scanHot(pr, n, root.short, &out)
		}
	}
	return out
}

// hotRoots returns the kernel roots: the declarations named in
// hotRootNames inside internal/force and internal/strategy.
func hotRoots(pr *program) []*node {
	var roots []*node
	for _, n := range pr.all {
		fd, ok := n.fn.(*ast.FuncDecl)
		if !ok || !hotRootNames[fd.Name.Name] {
			continue
		}
		// buildProgram makes declaration nodes only for typed functions.
		fn := n.pkg.Info.Defs[fd.Name].(*types.Func)
		if inPackage(fn.Pkg().Path(), "internal/force", "internal/strategy") {
			roots = append(roots, n)
		}
	}
	return roots
}

func (p *hotLoopPass) scanHot(pr *program, n *node, root string, out *[]lint.Finding) {
	info := n.pkg.Info
	emit := func(pos ast.Node, what string) {
		*out = append(*out, pr.finding(p.Name(), pos.Pos(), fmt.Sprintf(
			"%s inside a loop of kernel-hot %s (reachable from %s)", what, n.short, root)))
	}
	var walk func(node ast.Node, depth int)
	walk = func(node ast.Node, depth int) {
		ast.Inspect(node, func(m ast.Node) bool {
			if m == node {
				return true
			}
			switch x := m.(type) {
			case *ast.FuncLit:
				// A nested literal is its own node; it is scanned
				// separately iff the call graph marks it hot.
				return false
			case *ast.ForStmt:
				walk(x, depth+1)
				return false
			case *ast.RangeStmt:
				if depth >= 1 && isMap(typeOf(info, x.X)) {
					emit(x, "map iteration (nondeterministic order)")
				}
				walk(x, depth+1)
				return false
			case *ast.DeferStmt:
				if depth >= 1 {
					emit(x, "defer (allocates and delays release)")
				}
			case *ast.CallExpr:
				if depth < 1 {
					return true
				}
				switch builtinName(info, x) {
				case "make":
					emit(x, "make allocates")
				case "new":
					emit(x, "new allocates")
				case "append":
					emit(x, "append may grow and reallocate")
				}
				if boxesToInterface(info, x) {
					emit(x, "conversion to interface boxes its operand (allocates)")
				}
			}
			return true
		})
	}
	walk(n.body, 0)
}

// boxesToInterface reports an explicit conversion whose target type is
// an interface and whose operand is concrete — a per-call allocation.
func boxesToInterface(info *types.Info, call *ast.CallExpr) bool {
	if len(call.Args) != 1 {
		return false
	}
	tv, ok := info.Types[call.Fun]
	if !ok || !tv.IsType() || tv.Type == nil {
		return false
	}
	if _, isIface := tv.Type.Underlying().(*types.Interface); !isIface {
		return false
	}
	at, ok := info.Types[call.Args[0]]
	if !ok || at.Type == nil {
		return false
	}
	_, argIface := at.Type.Underlying().(*types.Interface)
	return !argIface
}
