package guard

import (
	"fmt"

	"sdcmd/internal/md"
	"sdcmd/internal/vec"
)

// Limits are the invariant thresholds the supervisor checks every
// CheckEvery steps. A zero field disables that monitor; the finiteness
// checks are always on (a NaN anywhere is never a valid state).
type Limits struct {
	// MaxTemperature faults when the instantaneous kinetic temperature
	// exceeds this many K.
	MaxTemperature float64
	// MaxKineticEnergy faults when the total kinetic energy exceeds this
	// many eV.
	MaxKineticEnergy float64
	// MaxDriftPerAtom faults when |E(t) − E(0)|/N exceeds this many
	// eV/atom, with E(0) re-anchored after every rollback. Only
	// meaningful for NVE runs (a thermostat drifts E by design).
	MaxDriftPerAtom float64
	// EscapeMargin faults when an atom sits more than this many Å
	// outside the box on a non-periodic axis (atoms on periodic axes are
	// wrapped and cannot escape).
	EscapeMargin float64
}

// firstNonFinite returns the index of the first vector with a NaN or
// infinite component, or -1.
func firstNonFinite(vs []vec.Vec3) int {
	for i, v := range vs {
		if !v.IsFinite() {
			return i
		}
	}
	return -1
}

// checkVectors is the finiteness part of the per-step invariant check:
// positions, velocities and forces must be finite. step goes into the
// fault.
func checkVectors(pos, vel, frc []vec.Vec3, step int) *Fault {
	if i := firstNonFinite(pos); i >= 0 {
		return &Fault{Monitor: "finite-pos", Step: step, Atom: i,
			Msg: fmt.Sprintf("non-finite position %v", pos[i])}
	}
	if i := firstNonFinite(vel); i >= 0 {
		return &Fault{Monitor: "finite-vel", Step: step, Atom: i,
			Msg: fmt.Sprintf("non-finite velocity %v", vel[i])}
	}
	if i := firstNonFinite(frc); i >= 0 {
		return &Fault{Monitor: "finite-force", Step: step, Atom: i,
			Msg: fmt.Sprintf("non-finite force %v", frc[i])}
	}
	return nil
}

// CheckSystem runs every state-only monitor (finiteness, blow-up
// thresholds, escape) against sys. The energy-drift monitor needs the
// simulator and lives in the supervisor.
func CheckSystem(sys *md.System, step int, lim Limits) *Fault {
	if f := checkVectors(sys.Pos, sys.Vel, sys.Force, step); f != nil {
		return f
	}
	if lim.MaxKineticEnergy > 0 {
		if ke := sys.KineticEnergy(); ke > lim.MaxKineticEnergy {
			return &Fault{Monitor: "kinetic-energy", Step: step, Atom: -1, Value: ke,
				Msg: fmt.Sprintf("kinetic energy %g eV exceeds limit %g eV", ke, lim.MaxKineticEnergy)}
		}
	}
	if lim.MaxTemperature > 0 {
		if T := sys.Temperature(); T > lim.MaxTemperature {
			return &Fault{Monitor: "temperature", Step: step, Atom: -1, Value: T,
				Msg: fmt.Sprintf("temperature %g K exceeds limit %g K", T, lim.MaxTemperature)}
		}
	}
	if lim.EscapeMargin > 0 {
		for d := 0; d < 3; d++ {
			if sys.Box.Periodic[d] {
				continue
			}
			lo := sys.Box.Lo[d] - lim.EscapeMargin
			hi := sys.Box.Hi[d] + lim.EscapeMargin
			for i, p := range sys.Pos {
				if p[d] < lo || p[d] > hi {
					return &Fault{Monitor: "escape", Step: step, Atom: i, Value: p[d],
						Msg: fmt.Sprintf("atom left the non-periodic box on axis %d (%g outside [%g, %g])",
							d, p[d], lo, hi)}
				}
			}
		}
	}
	return nil
}
