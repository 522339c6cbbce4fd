package flow

import (
	"fmt"
	"go/token"
	"go/types"
)

// originKind classifies where a written base or index value comes from,
// relative to the function whose summary holds it.
type originKind int

const (
	// oUnknown: the analysis cannot name the value (call result,
	// arithmetic, interface load). Writes rooted here are skipped —
	// the documented under-approximation.
	oUnknown originKind = iota
	// oLocal: allocated inside the function (make/new/composite
	// literal) or a plain local variable. Never shared across workers.
	oLocal
	// oParam: the i-th parameter (receiver first for methods).
	oParam
	// oCaptured: a variable of an enclosing function, shared by every
	// worker running the closure.
	oCaptured
	// oGlobal: a package-level variable.
	oGlobal
	// oField: base.field.
	oField
	// oElem: base[index] — one element selected by index.
	oElem
	// oWindow: base[off:] or an append/copy region — a window at a
	// statically unknown offset. Unlike oElem, a confined index deeper
	// in the chain cannot prove disjointness across workers.
	oWindow
	// oLoop: a for-loop variable ranging over [lo, hi).
	oLoop
)

// origin is one node of the tree naming a value's source.
type origin struct {
	kind   originKind
	param  int
	vr     *types.Var
	field  string
	base   *origin
	index  *origin
	lo, hi *origin
}

var unknownOrigin = &origin{kind: oUnknown}

// render gives origins a stable, human-readable spelling; it doubles as
// the dedup key for effects.
func render(o *origin) string {
	if o == nil {
		return "?"
	}
	switch o.kind {
	case oLocal:
		if o.vr != nil {
			return o.vr.Name()
		}
		return "<local>"
	case oParam:
		return fmt.Sprintf("param%d", o.param)
	case oCaptured, oGlobal:
		if o.vr != nil {
			return o.vr.Name()
		}
		return "<var>"
	case oField:
		return render(o.base) + "." + o.field
	case oElem:
		return render(o.base) + "[" + render(o.index) + "]"
	case oWindow:
		return render(o.base) + "[...]"
	case oLoop:
		return render(o.lo) + ".." + render(o.hi)
	}
	return "?"
}

// rootOf walks to the container at the bottom of a field/index chain.
func rootOf(o *origin) *origin {
	for o != nil {
		switch o.kind {
		case oField, oElem, oWindow:
			o = o.base
		default:
			return o
		}
	}
	return unknownOrigin
}

// effect is one potential write in a function summary: target is the
// written location in terms of the function's own params, captured
// variables and globals; pos is the syntactic write (preserved through
// interprocedural substitution so findings point at the real line).
type effect struct {
	target *origin
	pos    token.Pos
	via    string
}

// effectKey dedups effects: one per write position and written location.
type effectKey struct {
	pos    token.Pos
	target string
}

func (n *node) addEffect(e effect) bool {
	if len(n.effects) >= maxEffects {
		return false
	}
	k := effectKey{e.pos, render(e.target)}
	if n.keys[k] {
		return false
	}
	n.keys[k] = true
	n.effects = append(n.effects, e)
	return true
}

const (
	maxEffects     = 300
	maxRounds      = 25
	maxOriginDepth = 10
)

// fixpoint propagates callee effects into callers until nothing grows:
// each round substitutes argument origins for parameters, resolves
// captured variables against the calling frame, and keeps only effects
// still rooted in something potentially shared. Substitution depends
// only on the edge and the caller's frame, so each callee effect is
// substituted once per target: a round folds in only the effects its
// callees gained since the last.
func (pr *program) fixpoint() {
	for round := 0; round < maxRounds; round++ {
		changed := false
		for _, n := range pr.all {
			for _, e := range n.calls {
				for i := range e.to {
					t := &e.to[i]
					if t.n == n {
						continue
					}
					fresh := t.n.effects[t.folded:]
					t.folded = len(t.n.effects)
					for _, ef := range fresh {
						tgt := substOrigin(ef.target, t.args, n, 0)
						switch rootOf(tgt).kind {
						case oLocal, oUnknown:
							continue
						}
						via := ef.via
						if via == "" {
							via = t.n.short
						}
						if n.addEffect(effect{target: tgt, pos: ef.pos, via: via}) {
							changed = true
						}
					}
				}
			}
		}
		if !changed {
			return
		}
	}
}

// substOrigin rewrites a callee-frame origin into the caller's frame at
// one call site: parameters become argument origins, captured variables
// resolve against the caller, and everything else passes through.
func substOrigin(o *origin, args []*origin, caller *node, depth int) *origin {
	if o == nil || depth > maxOriginDepth {
		return unknownOrigin
	}
	switch o.kind {
	case oParam:
		if o.param >= 0 && o.param < len(args) && args[o.param] != nil {
			return args[o.param]
		}
		return unknownOrigin
	case oCaptured:
		// Re-home the variable in the caller, which may declare it.
		return caller.lookup(o.vr)
	case oField:
		return &origin{kind: oField, field: o.field, base: substOrigin(o.base, args, caller, depth+1)}
	case oElem:
		return &origin{kind: oElem,
			base:  substOrigin(o.base, args, caller, depth+1),
			index: substOrigin(o.index, args, caller, depth+1)}
	case oWindow:
		return &origin{kind: oWindow, base: substOrigin(o.base, args, caller, depth+1)}
	case oLoop:
		return &origin{kind: oLoop,
			lo: substOrigin(o.lo, args, caller, depth+1),
			hi: substOrigin(o.hi, args, caller, depth+1)}
	}
	return o
}

// lookup classifies a variable in n's frame: its recorded alias, or
// else where it lives relative to n.
func (n *node) lookup(vr *types.Var) *origin {
	if vr == nil {
		return unknownOrigin
	}
	if o, ok := n.env[vr]; ok {
		return o
	}
	return n.home(vr)
}

// home is where vr lives relative to n: one of its parameters, a
// package-level variable, a local declared in its body, or a variable
// captured from an enclosing function.
func (n *node) home(vr *types.Var) *origin {
	for i, p := range n.params {
		if p == vr {
			return &origin{kind: oParam, param: i}
		}
	}
	if vr.Pkg() != nil && vr.Parent() == vr.Pkg().Scope() {
		return &origin{kind: oGlobal, vr: vr}
	}
	if vr.Pos() >= n.fn.Pos() && vr.Pos() < n.fn.End() {
		return &origin{kind: oLocal, vr: vr}
	}
	return &origin{kind: oCaptured, vr: vr}
}
