// Command sdcvet runs the full static-analysis suite: the six
// source-discipline rules of internal/lint and the six whole-program
// passes of internal/flow. Five of those read one program index, built
// once per run, whose call resolver follows functions, methods,
// interface calls, func-typed struct fields and closures:
// sdc-shared-write (worker-body writes to shared reduction arrays must
// be provably confined or flow through an approved strategy.Reducer),
// hot-loop (no allocation, defer or map iteration inside loops of
// functions reachable from Compute or the force sweeps, the pair
// kernels included), goroutine-leak (every go statement needs provable
// join/stop evidence), lock-order (the mutex acquisition graph must be
// acyclic with no re-acquisition) and ctx-propagation (blocking
// operations reachable from ctx-accepting entry points must be
// cancellable); nondet-order (map iteration order must not flow into
// float accumulation, serialization, or unsorted results) reads each
// function on its own. Every pass must catch a bug planted at a live
// site of the tree (the mutation test in this package).
//
//	sdcvet ./...             # analyze the whole tree, exit 1 on findings
//	sdcvet -json ./...       # one JSON finding per line, for tooling
//	sdcvet -sarif ./...      # one SARIF 2.1.0 document, for CI upload
//	sdcvet -rules            # list every rule/pass and what it enforces
//	sdcvet -fix ./...        # remove stale //lint:ignore rules in place
//
//	sdcvet -write-kernel-budget LINT_kernel.json   # record compiler budget
//	sdcvet -kernel-budget                          # gate against it
//
// Everything runs under one driver over one parse and type-check of
// the tree. Findings print as file:line:col: rule: message and are
// suppressed by a same-line or preceding-line comment
// //lint:ignore <rule>[,<rule>...] <reason>, where the reason is
// mandatory.
//
// The kernel-budget mode is a different kind of gate: instead of AST
// passes it replays the compiler's own escape-analysis, bounds-check
// and inlining diagnostics for the kernel packages (internal/force, the
// radial terms of internal/potential, internal/strategy, the integrator
// of internal/md and the wrap of internal/box that run every step, and
// the grid and neighbor search of internal/core and internal/neighbor
// that run at every rebuild) and diffs per-file counts against the
// committed LINT_kernel.json, failing when escapes or bounds checks
// rise or inlined calls fall — a heap escape, a retained bounds check
// or a pair-loop helper pushed out of line regresses silently
// otherwise. See DESIGN.md, "Correctness tooling".
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"sdcmd/internal/flow"
	"sdcmd/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func passes() []lint.Pass {
	return append(lint.AsPasses(lint.DefaultRules()), flow.Passes()...)
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sdcvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	asJSON := fs.Bool("json", false, "emit one JSON finding per line")
	asSARIF := fs.Bool("sarif", false, "emit one SARIF 2.1.0 document")
	listRules := fs.Bool("rules", false, "list the rules and passes, then exit")
	fix := fs.Bool("fix", false, "rewrite source to remove stale //lint:ignore rules, then re-run")
	kernelBudget := fs.Bool("kernel-budget", false, "diff compiler escape/bounds-check/inlining diagnostics against the kernel budget baseline instead of running the passes")
	kernelBaseline := fs.String("kernel-baseline", "LINT_kernel.json", "kernel budget baseline file for -kernel-budget")
	writeKernelBudget := fs.String("write-kernel-budget", "", "record the current kernel budget to this file and exit 0")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *asJSON && *asSARIF {
		_, _ = fmt.Fprintln(stderr, "sdcvet: -json and -sarif are mutually exclusive")
		return 2
	}
	all := passes()
	if *listRules {
		for _, p := range all {
			if _, err := fmt.Fprintf(stdout, "%-20s %s\n", p.Name(), p.Doc()); err != nil {
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
		_, _ = fmt.Fprintln(stderr, "sdcvet:", err)
		return 2
	}
	if *kernelBudget || *writeKernelBudget != "" {
		return runKernelBudget(root, fs.Args(), *kernelBaseline, *writeKernelBudget, stdout, stderr)
	}
	pkgs, err := lint.Load(root, patterns)
	if err != nil {
		_, _ = fmt.Fprintln(stderr, "sdcvet:", err)
		return 2
	}
	findings := lint.RunPasses(pkgs, all)
	if *fix {
		edits, fixed, err := lint.FixAndRerun(root, patterns, pkgs, all)
		if err != nil {
			_, _ = fmt.Fprintln(stderr, "sdcvet:", err)
			return 2
		}
		for _, e := range edits {
			_, _ = fmt.Fprintf(stderr, "sdcvet: fixed %s:%d: removed stale ignore of %v\n", e.File, e.Line, e.Removed)
		}
		findings = fixed
	}
	if *asSARIF {
		err = lint.WriteSARIF(stdout, "sdcvet", all, findings)
	} else {
		err = lint.Write(stdout, findings, *asJSON)
	}
	if err != nil {
		_, _ = fmt.Fprintln(stderr, "sdcvet:", err)
		return 2
	}
	if len(findings) > 0 {
		return 1
	}
	return 0
}
