package flow

import (
	"fmt"

	"sdcmd/internal/lint"
)

// ApprovedPaths lists the path prefixes (or exact files, slash-
// separated and relative to the linted root) whose worker-body writes
// to shared reduction arrays are exempt: the reducer implementations
// whose disjointness the schedule audit and the dynamic checker prove.
var ApprovedPaths = []string{
	"internal/strategy/",
}

// workerWritePass checks the SDC write discipline: every write a
// Pool worker body can reach must be provably confined to the worker
// (indexed by tid, by the strided k, or by the worker's [start, end)
// block) unless the dispatch site lives in an approved reducer file.
type workerWritePass struct {
	sh *shared
}

func (p *workerWritePass) Name() string { return "sdc-shared-write" }

func (p *workerWritePass) Doc() string {
	return "worker bodies must not write shared arrays outside approved reducers unless the index is provably thread- or block-confined"
}

// convention describes which worker-body parameters confine an index
// for one Pool dispatch method. loopLo/loopHi name the parameters of a
// worker's private [start, end) block, or -1 when the method has none.
type convention struct {
	confined       map[int]bool
	loopLo, loopHi int
}

// conventionFor returns the confinement contract of a dispatch method:
//
//	Run(fn(tid))                          — tid is param 0
//	ParallelFor/ParallelForAtoms(body(start, end, tid))
//	                                      — tid is param 2, block is [p0, p1)
//	ParallelForStrided(body(k, tid))      — both k and tid confine
func conventionFor(method string) convention {
	switch method {
	case "Run":
		return convention{confined: map[int]bool{0: true}, loopLo: -1, loopHi: -1}
	case "ParallelFor", "ParallelForAtoms":
		return convention{confined: map[int]bool{2: true}, loopLo: 0, loopHi: 1}
	case "ParallelForStrided":
		return convention{confined: map[int]bool{0: true, 1: true}, loopLo: -1, loopHi: -1}
	}
	return convention{confined: map[int]bool{}, loopLo: -1, loopHi: -1}
}

// confinedIndex reports whether an index value is private to one
// worker under the convention: a confined parameter directly, or a
// loop variable ranging exactly over the worker's block parameters.
func confinedIndex(o *origin, conv convention) bool {
	if o == nil {
		return false
	}
	switch o.kind {
	case oParam:
		return conv.confined[o.param]
	case oLoop:
		if conv.loopLo < 0 {
			return false
		}
		return o.lo != nil && o.lo.kind == oParam && o.lo.param == conv.loopLo &&
			o.hi != nil && o.hi.kind == oParam && o.hi.param == conv.loopHi
	}
	return false
}

// confinedWrite applies the chain rule to a write target: scanning the
// origin chain from the shared root outward, the write is confined as
// soon as an element step uses a confined index — unless a window
// (slice-at-unknown-offset) appears first, which breaks the proof:
// distinct confined indices into overlapping windows may alias.
func confinedWrite(t *origin, conv convention) bool {
	var chain []*origin
	for o := t; o != nil; o = o.base {
		chain = append(chain, o)
		if o.kind != oField && o.kind != oElem && o.kind != oWindow {
			break
		}
	}
	window := false
	for i := len(chain) - 1; i >= 0; i-- {
		switch chain[i].kind {
		case oWindow:
			window = true
		case oElem:
			if !window && confinedIndex(chain[i].index, conv) {
				return true
			}
		}
	}
	return false
}

func (p *workerWritePass) Analyze(pkgs []*lint.Package) []lint.Finding {
	pr := p.sh.programFor(pkgs)
	var out []lint.Finding
	seen := map[string]bool{}
	for _, d := range pr.dispatch {
		if lint.PathAllowed(d.file.Rel, ApprovedPaths) {
			continue // approved reducer entry point
		}
		conv := conventionFor(d.method)
		for _, ef := range d.body.effects {
			if confinedWrite(ef.target, conv) {
				continue
			}
			f := pr.finding(p.Name(), ef.pos, "")
			if lint.PathAllowed(f.File, ApprovedPaths) {
				continue // the write itself lives in approved reducer code
			}
			key := fmt.Sprintf("%s:%d:%d:%s", f.File, f.Line, f.Col, render(ef.target))
			if seen[key] {
				continue
			}
			seen[key] = true
			f.Message = fmt.Sprintf(
				"worker body passed to %s writes shared memory %s without provable confinement; index by tid or the worker's block, or route the reduction through an approved strategy.Reducer",
				d.method, render(ef.target))
			if ef.via != "" {
				f.Message += fmt.Sprintf(" (write reached via %s)", ef.via)
			}
			out = append(out, f)
		}
	}
	return out
}
