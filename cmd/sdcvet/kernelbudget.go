package main

import (
	"fmt"
	"io"
	"runtime"

	"sdcmd/internal/budget"
)

// runKernelBudget implements -kernel-budget and -write-kernel-budget:
// compute the compiler escape/bounds-check/inlining counts for the kernel
// packages and either record them or diff them against the committed
// baseline. Regressions fail the gate; improvements are reported with
// a hint to re-record the baseline.
func runKernelBudget(root string, patterns []string, baselinePath, writePath string, stdout, stderr io.Writer) int {
	if len(patterns) == 0 {
		patterns = budget.DefaultPatterns
	}
	cur, err := budget.Compute(root, patterns)
	if err != nil {
		_, _ = fmt.Fprintln(stderr, "sdcvet:", err)
		return 2
	}
	if writePath != "" {
		if err := cur.WriteFile(writePath); err != nil {
			_, _ = fmt.Fprintln(stderr, "sdcvet:", err)
			return 2
		}
		_, _ = fmt.Fprintf(stderr, "sdcvet: wrote kernel budget (%d escapes, %d bounds checks, %d inlined calls across %d files) to %s\n",
			cur.Total.Escapes, cur.Total.Bounds, cur.Total.Inlined, len(cur.Files), writePath)
		return 0
	}
	base, err := budget.ReadFile(baselinePath)
	if err != nil {
		_, _ = fmt.Fprintln(stderr, "sdcvet:", err)
		return 2
	}
	// Diagnostics are only comparable within one compiler minor: a new
	// release legitimately moves values on or off the heap and proves
	// different bounds. Across minors the diff is reported but
	// informational; re-record the baseline on the new toolchain.
	enforce := true
	if base.Go != "" && goMinor(base.Go) != goMinor(runtime.Version()) {
		enforce = false
		_, _ = fmt.Fprintf(stderr, "sdcvet: warning: baseline recorded with %s, running %s; diff is informational — re-record with -write-kernel-budget %s\n",
			base.Go, runtime.Version(), baselinePath)
	}
	regressions, improvements := budget.Diff(base, cur)
	for _, d := range regressions {
		if _, err := fmt.Fprintf(stdout, "%s: kernel budget exceeded: %s\n", d.File, d.String()); err != nil {
			return 2
		}
	}
	for _, d := range improvements {
		_, _ = fmt.Fprintf(stderr, "sdcvet: note: improvement: %s (re-record with -write-kernel-budget %s)\n", d.String(), baselinePath)
	}
	if len(regressions) > 0 && enforce {
		_, _ = fmt.Fprintf(stderr, "sdcvet: %d kernel budget regression(s) vs %s\n", len(regressions), baselinePath)
		return 1
	}
	return 0
}

// goMinor truncates a toolchain version to its minor: "go1.24.0" ->
// "go1.24".
func goMinor(v string) string {
	dots := 0
	for i := 0; i < len(v); i++ {
		if v[i] == '.' {
			dots++
			if dots == 2 {
				return v[:i]
			}
		}
	}
	return v
}
