// Command sdclint statically checks the SDC source disciplines — the
// invariants the paper's race-freedom proof (§II.B) rests on:
//
//	sdclint ./...            # lint the whole tree, exit 1 on findings
//	sdclint -json ./...      # one JSON finding per line, for tooling
//	sdclint -sarif ./...     # one SARIF 2.1.0 document, for CI upload
//	sdclint -rules           # list the rules and what they enforce
//	sdclint -fix ./...       # remove stale ignore rules
//
// Findings print as file:line:col: rule: message. A finding is
// suppressed by a same-line or preceding-line comment of the form
//
//	//lint:ignore <rule> <reason>
//
// where the reason is mandatory. See DESIGN.md, "Correctness tooling",
// for how sdclint relates to strategy.AuditSDCSchedule (static schedule
// proof) and strategy.CheckedReducer (dynamic write-set check).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"sdcmd/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sdclint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	asJSON := fs.Bool("json", false, "emit one JSON finding per line")
	asSARIF := fs.Bool("sarif", false, "emit one SARIF 2.1.0 document")
	listRules := fs.Bool("rules", false, "list the rules and exit")
	fix := fs.Bool("fix", false, "rewrite source to remove stale //lint:ignore rules, then re-run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *asJSON && *asSARIF {
		_, _ = fmt.Fprintln(stderr, "sdclint: -json and -sarif are mutually exclusive")
		return 2
	}
	rules := lint.DefaultRules()
	if *listRules {
		for _, r := range rules {
			if _, err := fmt.Fprintf(stdout, "%-20s %s\n", r.Name(), r.Doc()); err != nil {
				return 2
			}
		}
		return 0
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	root, err := os.Getwd()
	if err != nil {
		_, _ = fmt.Fprintln(stderr, "sdclint:", err)
		return 2
	}
	pkgs, err := lint.Load(root, patterns)
	if err != nil {
		_, _ = fmt.Fprintln(stderr, "sdclint:", err)
		return 2
	}
	findings := lint.Run(pkgs, rules)
	if *fix {
		edits, fixed, err := lint.FixAndRerun(root, patterns, pkgs, lint.AsPasses(rules))
		if err != nil {
			_, _ = fmt.Fprintln(stderr, "sdclint:", err)
			return 2
		}
		for _, e := range edits {
			_, _ = fmt.Fprintf(stderr, "sdclint: fixed %s:%d: removed stale ignore of %v\n", e.File, e.Line, e.Removed)
		}
		findings = fixed
	}
	if *asSARIF {
		err = lint.WriteSARIF(stdout, "sdclint", lint.AsPasses(rules), findings)
	} else {
		err = lint.Write(stdout, findings, *asJSON)
	}
	if err != nil {
		_, _ = fmt.Fprintln(stderr, "sdclint:", err)
		return 2
	}
	if len(findings) > 0 {
		return 1
	}
	return 0
}
