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

// Conflict records two workers writing one array slot inside the same
// color phase — exactly the race the SDC coloring is supposed to make
// impossible (§II.B).
type Conflict struct {
	// Color is the phase in which the collision occurred.
	Color int
	// Slot is the per-atom array index written twice.
	Slot int32
	// FirstTID and SecondTID are the clashing workers.
	FirstTID, SecondTID int
}

// AuditSDCSchedule replays the exact SDC schedule — color by color,
// subdomains strided over `threads` workers the way sdcReducer assigns
// them — and records every slot each worker would write (the atom
// itself and all of its half-list neighbors). It returns the conflicts:
// slots written by two different workers within one color phase. A
// correct decomposition must return none; tests drive this with both
// legal and deliberately corrupted colorings.
//
// This is a *schedule* verifier, not a runtime race detector: it checks
// the paper's safety theorem against the actual data structures
// (pstart/partindex, neighlist, coloring, worker striding) without
// needing concurrent execution — so it works even on a single-core
// host where real races rarely manifest.
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
	var conflicts []Conflict
	// writer[slot] = tid+1 within the current color phase.
	writer := make([]int32, list.N())
	for color := 0; color < dec.NumColors(); color++ {
		for k := range writer {
			writer[k] = 0
		}
		subs := dec.ByColor[color]
		record := func(slot int32, tid int) {
			prev := writer[slot]
			if prev == 0 {
				writer[slot] = int32(tid + 1)
				return
			}
			if int(prev) != tid+1 {
				conflicts = append(conflicts, Conflict{
					Color: color, Slot: slot,
					FirstTID: int(prev) - 1, SecondTID: tid,
				})
			}
		}
		for k, s := range subs {
			tid := k % threads // ParallelForStrided's assignment
			for _, i := range dec.Atoms(int(s)) {
				record(i, tid)
				for _, j := range list.Neighbors(int(i)) {
					record(j, tid)
				}
			}
		}
	}
	return conflicts, nil
}
