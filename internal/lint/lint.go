// Package lint is a small static-analysis framework for the SDC
// concurrency invariants. The paper's correctness argument (§II.B) is a
// proof obligation — same-colored subdomains never write the same
// rho[]/force[] slot — and that proof only holds while the codebase
// keeps a handful of source-level disciplines: all worker parallelism
// routes through strategy.Pool, atomics stay confined to the CS
// reducer, kernels stay deterministic, and errors are not silently
// dropped. The rules in this package machine-check those disciplines;
// cmd/sdcvet runs them over the tree, and AuditSDCSchedule /
// strategy.CheckedReducer cover the schedule-level and runtime-level
// complements (see DESIGN.md, "Correctness tooling").
//
// The framework is deliberately stdlib-only (go/ast, go/parser,
// go/token, go/types): the container must be able to lint itself with
// no external dependencies.
package lint

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// Finding is one rule violation at a source position.
type Finding struct {
	// File is the path relative to the linted root (slash-separated).
	File string `json:"file"`
	// Line and Col are 1-based.
	Line int `json:"line"`
	Col  int `json:"col"`
	// Rule is the short rule name (the token //lint:ignore matches on).
	Rule string `json:"rule"`
	// Message explains the violation and the sanctioned alternative.
	Message string `json:"message"`
}

// String renders the conventional file:line:col: rule: message form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.File, f.Line, f.Col, f.Rule, f.Message)
}

// Rule is one checkable per-package source discipline.
type Rule interface {
	// Name is the short identifier used in reports and ignore
	// directives.
	Name() string
	// Doc is a one-line description of what the rule enforces and why.
	Doc() string
	// Check reports the rule's findings in one package. Suppression
	// via //lint:ignore is applied by the driver, not by the rule.
	Check(p *Package) []Finding
}

// Pass is one whole-program analysis. A Rule sees one package at a
// time; a Pass sees the entire loaded program, which is what the
// interprocedural sdcvet analyses need (a write-set leaking through a
// cross-package helper is invisible per package). Both run under the
// same driver and share one load/type-check of the tree.
type Pass interface {
	// Name is the short identifier used in reports and ignore
	// directives (the Rule of every finding the pass emits).
	Name() string
	// Doc is a one-line description of what the pass enforces and why.
	Doc() string
	// Analyze reports the pass's findings over the whole program.
	// Suppression via //lint:ignore is applied by the driver.
	Analyze(pkgs []*Package) []Finding
}

// rulePass adapts a per-package Rule to the whole-program Pass driver.
type rulePass struct{ r Rule }

func (rp rulePass) Name() string { return rp.r.Name() }
func (rp rulePass) Doc() string  { return rp.r.Doc() }
func (rp rulePass) Analyze(pkgs []*Package) []Finding {
	var out []Finding
	for _, p := range pkgs {
		out = append(out, rp.r.Check(p)...)
	}
	return out
}

// AsPass adapts a Rule to a Pass.
func AsPass(r Rule) Pass { return rulePass{r} }

// AsPasses adapts a rule list to a pass list.
func AsPasses(rules []Rule) []Pass {
	out := make([]Pass, len(rules))
	for i, r := range rules {
		out[i] = AsPass(r)
	}
	return out
}

// Run applies rules to pkgs under the shared driver; see RunPasses.
func Run(pkgs []*Package, rules []Rule) []Finding {
	return RunPasses(pkgs, AsPasses(rules))
}

// RunPasses applies passes to pkgs, drops findings suppressed by
// //lint:ignore directives, reports malformed directives and stale
// suppressions (a directive rule that fired nothing this run), and
// returns everything sorted by (file, line, col, rule). Stale detection
// only judges directives naming a rule among the passes actually run,
// so a run of some passes does not condemn a directive meant for
// another.
func RunPasses(pkgs []*Package, passes []Pass) []Finding {
	byFile := map[string]*Package{}
	known := KnownRules(passes)
	for _, p := range pkgs {
		p.resetIgnoreUse()
		for _, f := range p.Files {
			byFile[f.Rel] = p
		}
	}
	var out []Finding
	for _, pass := range passes {
		for _, f := range pass.Analyze(pkgs) {
			if p := byFile[f.File]; p == nil || !p.suppress(f) {
				out = append(out, f)
			}
		}
	}
	for _, p := range pkgs {
		out = append(out, p.malformedIgnores()...)
		out = append(out, p.staleIgnores(known)...)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Rule < b.Rule
	})
	return out
}

// Write renders findings one per line. JSON mode emits one JSON object
// per line (the -json contract of cmd/sdcvet) so downstream tooling
// can stream-parse results.
func Write(w io.Writer, findings []Finding, asJSON bool) error {
	for _, f := range findings {
		if asJSON {
			b, err := json.Marshal(f)
			if err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s\n", b); err != nil {
				return err
			}
			continue
		}
		if _, err := fmt.Fprintf(w, "%s\n", f); err != nil {
			return err
		}
	}
	return nil
}
