// Package budget is the hot-loop negative control for root names: its
// Compute shares a kernel root's name but lives outside internal/force
// and internal/strategy, so its in-loop make must not be flagged.
package budget

// Compute counts the fields of each line, allocating a scratch slice
// per line: a one-shot tool loop, not a kernel.
func Compute(lines []string) int {
	total := 0
	for _, line := range lines {
		fields := make([]int, len(line))
		total += len(fields)
	}
	return total
}
