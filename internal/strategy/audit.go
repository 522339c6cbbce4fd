package strategy

import (
	"errors"
	"fmt"

	"sdcmd/internal/core"
	"sdcmd/internal/neighbor"
)

// ErrNeedHalfList is returned when a verifier is handed a full neighbor
// list: the SDC write-set reasoning (atom i plus its half-list
// neighbors) only holds for half lists, so auditing a full list would
// silently prove the wrong theorem. Callers that derive full lists
// (e.g. RC) must audit the half list they started from.
var ErrNeedHalfList = errors.New("strategy: audit expects a half neighbor list")

// Conflict records two subdomains of one color writing one array slot
// — exactly the race the SDC coloring is supposed to make impossible
// (§II.B): the workers claim a color's subdomains in whatever order
// they reach the cursor, so any two of them may run at once.
type Conflict struct {
	// Color is the phase in which the collision occurred.
	Color int
	// Slot is the per-atom array index written twice.
	Slot int32
	// FirstSub and SecondSub are the clashing subdomains.
	FirstSub, SecondSub int
}

// AuditSDCSchedule replays the SDC schedule — color by color, each
// color's subdomains claimed by `threads` workers — and records every
// slot each subdomain would write (its atoms and all of their half-list
// neighbors). Since a claim may give any subdomain to any worker, with
// threads >= 2 any two subdomains of one color may run at once, so it
// returns the conflicts: slots written by two different subdomains
// within one color phase. With one worker the subdomains run one after
// another and nothing can conflict. A correct decomposition must return
// none; tests drive this with both legal and deliberately corrupted
// colorings.
//
// This is a *schedule* verifier, not a runtime race detector: it checks
// the paper's safety theorem against the actual data structures
// (pstart/partindex, neighlist, coloring) without needing concurrent
// execution — so it works even on a single-core host where real races
// rarely manifest.
func AuditSDCSchedule(dec *core.Decomposition, list *neighbor.List, threads int) ([]Conflict, error) {
	if dec == nil || list == nil {
		return nil, fmt.Errorf("strategy: audit needs a decomposition and a list")
	}
	if !list.Half {
		return nil, ErrNeedHalfList
	}
	if threads < 1 {
		return nil, fmt.Errorf("strategy: audit threads %d must be >= 1", threads)
	}
	if len(dec.PartIndex) != list.N() {
		return nil, fmt.Errorf("strategy: decomposition covers %d atoms, list %d", len(dec.PartIndex), list.N())
	}
	if threads == 1 {
		return nil, nil
	}
	var conflicts []Conflict
	// writer[slot] = subdomain+1 within the current color phase.
	writer := make([]int32, list.N())
	for color := 0; color < dec.NumColors(); color++ {
		clear(writer)
		for _, s := range dec.ByColor[color] {
			record := func(slot int32) {
				prev := writer[slot]
				if prev == 0 {
					writer[slot] = s + 1
					return
				}
				if prev != s+1 {
					conflicts = append(conflicts, Conflict{
						Color: color, Slot: slot,
						FirstSub: int(prev) - 1, SecondSub: int(s),
					})
				}
			}
			for _, i := range dec.Atoms(int(s)) {
				record(i)
				for _, j := range list.Neighbors(int(i)) {
					record(j)
				}
			}
		}
	}
	return conflicts, nil
}
