// Package harness reproduces the paper's evaluation artifacts: Table 1
// (SDC speedups by dimensionality), Fig. 9 (strategy comparison) and
// the §II.D data-reordering improvement. Each experiment runs in one of
// two modes:
//
//   - ModeModel (default): workload statistics are measured on real
//     scaled systems, then the calibrated perfmodel predicts the
//     16-core Xeon testbed's times (the hardware substitution of
//     DESIGN.md §4).
//   - ModeMeasured: the real goroutine implementations are timed on
//     this host with scaled-down replicas. Speedups are honest wall
//     clock ratios; on hosts with fewer cores than threads they
//     document that limitation rather than the paper's machine.
package harness

import (
	"fmt"
	"time"

	"sdcmd/internal/lattice"
	"sdcmd/internal/md"
	"sdcmd/internal/perfmodel"
	"sdcmd/internal/potential"
)

// Mode selects prediction vs measurement.
type Mode int

// Modes.
const (
	ModeModel Mode = iota
	ModeMeasured
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeModel:
		return "model"
	case ModeMeasured:
		return "measured"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// ParseMode parses "model" or "measured".
func ParseMode(s string) (Mode, error) {
	switch s {
	case "model":
		return ModeModel, nil
	case "measured":
		return ModeMeasured, nil
	}
	return 0, fmt.Errorf("harness: unknown mode %q (want model or measured)", s)
}

// PaperThreads are the thread counts of Table 1 and Fig. 9.
var PaperThreads = []int{2, 3, 4, 8, 12, 16}

// Options configures an experiment run.
type Options struct {
	// Mode selects model predictions or host measurements.
	Mode Mode
	// Threads are the parallel widths to evaluate (default PaperThreads).
	Threads []int
	// Cases are the paper cases to cover (default all four in model
	// mode; measured mode replaces their sizes with scaled replicas).
	Cases []lattice.Case
	// MeasuredCells is the replica size (cells per side) for measured
	// mode; kept small so a laptop can run the suite (default
	// md.DefaultJob's 8 → 1024 atoms).
	MeasuredCells int
	// MeasuredSteps is the number of timed force evaluations per
	// configuration in measured mode (default 10).
	MeasuredSteps int
	// Machine is the perfmodel calibration (default XeonE7320).
	Machine perfmodel.Machine
	// Check wraps every measured-mode reducer in a
	// strategy.CheckedReducer and fails the run on any write conflict.
	// Timings taken under Check include the checker's bookkeeping and
	// must not be compared against unchecked runs.
	Check bool
}

// DefaultOptions returns the value every unset Options field takes.
func DefaultOptions() Options { return Options{}.withDefaults() }

// reach is the pair reach every experiment lists and decomposes with:
// the default Fe potential's cutoff and md.DefaultConfig's skin.
func reach() (pot potential.EAM, cutoff, skin float64) {
	cfg := md.DefaultConfig()
	return cfg.Pot, cfg.Pot.Cutoff(), cfg.Skin
}

// withDefaults fills unset fields.
func (o Options) withDefaults() Options {
	if len(o.Threads) == 0 {
		o.Threads = PaperThreads
	}
	if len(o.Cases) == 0 {
		o.Cases = lattice.Cases
	}
	if o.MeasuredCells == 0 {
		o.MeasuredCells = md.DefaultJob().Cells
	}
	if o.MeasuredSteps == 0 {
		o.MeasuredSteps = 10
	}
	if o.Machine.CPair == 0 {
		o.Machine = perfmodel.XeonE7320()
	}
	return o
}

// validate rejects unusable options.
func (o Options) validate() error {
	for _, t := range o.Threads {
		if t < 1 {
			return fmt.Errorf("harness: thread count %d must be >= 1", t)
		}
	}
	if o.MeasuredCells < 4 {
		return fmt.Errorf("harness: measured replica needs >= 4 cells, got %d", o.MeasuredCells)
	}
	if o.MeasuredSteps < 1 {
		return fmt.Errorf("harness: measured steps %d must be >= 1", o.MeasuredSteps)
	}
	return nil
}

// Cell is one table entry: a speedup or a blank (the paper's empty
// cells for infeasible 1D configurations). Measured-mode cells also
// carry the §III.A per-phase decomposition of the parallel run.
type Cell struct {
	Speedup float64
	Blank   bool
	// DensityShare, EmbedShare and ForceShare are the fractions of the
	// instrumented force time each EAM phase consumed; valid only when
	// HasPhases is set (measured mode).
	DensityShare, EmbedShare, ForceShare float64
	HasPhases                            bool
}

// Format renders the cell the way the paper's tables do.
func (c Cell) Format() string {
	if c.Blank {
		return "  -- "
	}
	return fmt.Sprintf("%5.2f", c.Speedup)
}

// FormatPhases renders the per-phase share triple as percentages
// ("46/08/46"); blank or model-mode cells render as dashes.
func (c Cell) FormatPhases() string {
	if c.Blank || !c.HasPhases {
		return "   --   "
	}
	return fmt.Sprintf("%02.0f/%02.0f/%02.0f",
		100*c.DensityShare, 100*c.EmbedShare, 100*c.ForceShare)
}

// cellFromMeasured builds a measured-mode cell from the serial baseline
// and one parallel measurement.
func cellFromMeasured(serial time.Duration, par measured) Cell {
	return Cell{
		Speedup:      float64(serial) / float64(par.elapsed),
		DensityShare: par.densityShare,
		EmbedShare:   par.embedShare,
		ForceShare:   par.forceShare,
		HasPhases:    true,
	}
}
