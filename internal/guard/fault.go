// Package guard makes long EAM runs survivable: a Supervisor wraps
// md.Simulator with periodic invariant checks (non-finite state,
// kinetic/temperature blow-up, energy drift, escaped atoms), a bounded
// in-memory ring of validated snapshots plus atomic on-disk
// checkpoints, rollback with a fixed degradation ladder (halve Dt, then
// SDC → CS → Serial), a watchdog that turns a stalled sweep into a
// typed fault instead of a hang, and a deterministic fault injector so
// every recovery path is exercised by tests rather than hoped-for.
//
// The design follows what production MD packages such as MOLDY treat
// as first-class: run-health checks and restart files, layered over the
// paper's parallel strategies.
package guard

import (
	"errors"
	"fmt"
)

// Fault is a typed invariant violation: which monitor fired, at which
// step, on which atom. It is an error so it flows through ordinary
// error returns, and carries enough structure for the event log and the
// recovery policy to act on it without parsing messages.
type Fault struct {
	// Monitor names the check that fired ("finite-force", "temperature",
	// "energy-drift", "escape", "watchdog", "integrator", ...).
	Monitor string
	// Step is the absolute simulation step at detection.
	Step int
	// Atom is the offending atom index, or -1 for system-wide faults.
	Atom int
	// Value is the offending quantity when one exists (temperature in K,
	// drift in eV/atom, ...); 0 otherwise.
	Value float64
	// Msg is the human-readable diagnosis.
	Msg string
}

// Error implements error.
func (f *Fault) Error() string {
	if f.Atom >= 0 {
		return fmt.Sprintf("guard: [%s] step %d atom %d: %s", f.Monitor, f.Step, f.Atom, f.Msg)
	}
	return fmt.Sprintf("guard: [%s] step %d: %s", f.Monitor, f.Step, f.Msg)
}

// AsFault unwraps err to a *Fault when one is in the chain.
func AsFault(err error) (*Fault, bool) {
	var f *Fault
	ok := errors.As(err, &f)
	return f, ok
}
