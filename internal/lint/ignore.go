package lint

import (
	"strings"
)

// An ignore directive has the form
//
//	//lint:ignore <rule>[,<rule>...] <reason>
//
// and suppresses findings of the named rules on its own line (trailing
// comment) or on the first line after its comment group (standalone
// comment above the offending code). One directive may name several
// comma-separated rules sharing one reason — a line that violates two
// disciplines needs one justification, not two copies of it. The reason
// is mandatory: a suppression without a recorded justification is
// itself reported. A directive (or one of its rules) that never
// suppresses anything is reported as stale, so dead suppressions cannot
// silently outlive the violation they once covered.
const ignorePrefix = "lint:ignore"

type ignoreDirective struct {
	file    string // Rel path of the file holding the directive
	line    int    // line of the directive comment
	endLine int    // last line of the enclosing comment group
	rules   []string
	used    []bool // used[k]: rules[k] suppressed at least one finding
	reason  string
}

// wellFormed reports a directive with at least one rule and a reason.
func (d *ignoreDirective) wellFormed() bool {
	return len(d.rules) > 0 && d.reason != ""
}

// collectIgnores scans every comment of every file for directives.
func (p *Package) collectIgnores() {
	for _, f := range p.Files {
		for _, group := range f.AST.Comments {
			groupEnd := p.Fset.Position(group.End()).Line
			for _, c := range group.List {
				text := strings.TrimPrefix(c.Text, "//")
				if !strings.HasPrefix(text, ignorePrefix) {
					continue
				}
				fields := strings.Fields(strings.TrimPrefix(text, ignorePrefix))
				d := ignoreDirective{
					file:    f.Rel,
					line:    p.Fset.Position(c.Pos()).Line,
					endLine: groupEnd,
				}
				if len(fields) >= 1 {
					for _, r := range strings.Split(fields[0], ",") {
						if r = strings.TrimSpace(r); r != "" {
							d.rules = append(d.rules, r)
						}
					}
				}
				if len(fields) >= 2 {
					d.reason = strings.Join(fields[1:], " ")
				}
				d.used = make([]bool, len(d.rules))
				p.ignores = append(p.ignores, d)
			}
		}
	}
}

// suppress reports whether a well-formed directive covers f, recording
// which directive rules earned their keep (for stale detection).
func (p *Package) suppress(f Finding) bool {
	hit := false
	for i := range p.ignores {
		d := &p.ignores[i]
		if !d.wellFormed() {
			continue // malformed: reported, never honored
		}
		if d.file != f.File || (f.Line != d.line && f.Line != d.endLine+1) {
			continue
		}
		for k, r := range d.rules {
			if r == f.Rule {
				d.used[k] = true
				hit = true
			}
		}
	}
	return hit
}

// resetIgnoreUse clears usage marks so one loaded Package can be run
// through several independent RunPasses calls.
func (p *Package) resetIgnoreUse() {
	for i := range p.ignores {
		for k := range p.ignores[i].used {
			p.ignores[i].used[k] = false
		}
	}
}

// malformedIgnores reports directives missing a rule or a reason.
func (p *Package) malformedIgnores() []Finding {
	var out []Finding
	for i := range p.ignores {
		if p.ignores[i].wellFormed() {
			continue
		}
		out = append(out, Finding{
			File: p.ignores[i].file,
			Line: p.ignores[i].line,
			Col:  1,
			Rule: "ignore-directive",
			Message: "malformed //lint:ignore directive: want " +
				"//lint:ignore <rule>[,<rule>...] <reason>",
		})
	}
	return out
}

// staleIgnores reports directive rules that suppressed nothing in the
// run. Only rules the run actually knows are judged: a directive for a
// pass outside the run (e.g. an sdcvet pass when only the source rules
// run) is not this run's business.
func (p *Package) staleIgnores(known map[string]bool) []Finding {
	var out []Finding
	for i := range p.ignores {
		d := &p.ignores[i]
		if !d.wellFormed() {
			continue
		}
		for k, r := range d.rules {
			if known[r] && !d.used[k] {
				out = append(out, Finding{
					File: d.file,
					Line: d.line,
					Col:  1,
					Rule: "stale-ignore",
					Message: "//lint:ignore " + r + " suppresses nothing — the rule " +
						"no longer fires here; delete the stale directive",
				})
			}
		}
	}
	return out
}
