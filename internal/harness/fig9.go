package harness

import (
	"fmt"
	"io"

	"sdcmd/internal/core"
	"sdcmd/internal/lattice"
	"sdcmd/internal/perfmodel"
	"sdcmd/internal/strategy"
)

// Fig9Strategies are the four curves of each Fig. 9 panel: the paper's
// 2D SDC against Critical Section, Shared Array Privatization and
// Redundant Computations. The atomic variant is included as the modern
// flavor of the CS class.
var Fig9Strategies = []strategy.Kind{strategy.SDC, strategy.CS, strategy.AtomicCS, strategy.SAP, strategy.RC}

// Fig9 is experiment E2: speedup curves per strategy, one panel per
// test case.
type Fig9 struct {
	Mode    Mode
	Threads []int
	Cases   []lattice.Case
	// Curves[case][kind][threadIdx].
	Curves map[lattice.Case]map[strategy.Kind][]Cell
}

// RunFig9 executes E2 (SDC uses the 2D decomposition, as the paper's
// figure does).
func RunFig9(opts Options) (*Fig9, error) {
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return nil, err
	}
	f := &Fig9{
		Mode:    opts.Mode,
		Threads: opts.Threads,
		Cases:   opts.Cases,
		Curves:  map[lattice.Case]map[strategy.Kind][]Cell{},
	}
	switch opts.Mode {
	case ModeModel:
		_, cutoff, skin := reach()
		ppa, err := perfmodel.MeasurePairsPerAtom(8, cutoff, skin)
		if err != nil {
			return nil, err
		}
		for _, c := range opts.Cases {
			in, err := perfmodel.InputForCase(c, ppa)
			if err != nil {
				return nil, err
			}
			f.Curves[c] = map[strategy.Kind][]Cell{}
			for _, k := range Fig9Strategies {
				cells := make([]Cell, len(opts.Threads))
				for ti, p := range opts.Threads {
					s, err := opts.Machine.Speedup(k, core.Dim2, p, in)
					if err != nil {
						return nil, err
					}
					cells[ti] = Cell{Speedup: s}
				}
				f.Curves[c][k] = cells
			}
		}
	case ModeMeasured:
		for _, c := range opts.Cases {
			serial, err := measureForceTime(opts, measureSpec{kind: strategy.Serial, threads: 1})
			if err != nil {
				return nil, err
			}
			f.Curves[c] = map[strategy.Kind][]Cell{}
			for _, k := range Fig9Strategies {
				cells := make([]Cell, len(opts.Threads))
				for ti, p := range opts.Threads {
					par, err := measureForceTime(opts, measureSpec{kind: k, dim: core.Dim2, threads: p})
					if err != nil {
						return nil, err
					}
					cells[ti] = cellFromMeasured(serial.elapsed, par)
				}
				f.Curves[c][k] = cells
			}
		}
	default:
		return nil, fmt.Errorf("harness: unknown mode %v", opts.Mode)
	}
	return f, nil
}

// Render prints the four panels as aligned text series, one row per
// strategy — the same data the paper plots.
func (f *Fig9) Render(w io.Writer) error {
	p := &printer{w: w}
	p.printf("FIG 9 — speedup curves: SDC(2D) vs CS vs Atomic vs SAP vs RC (%s mode)\n", f.Mode)
	for _, c := range f.Cases {
		p.printf("\n%s\n", c)
		p.printf("  %-8s", "threads:")
		for _, th := range f.Threads {
			p.printf(" %5d", th)
		}
		p.println()
		for _, k := range Fig9Strategies {
			p.printf("  %-8s", k.String())
			for _, cell := range f.Curves[c][k] {
				p.printf(" %s", cell.Format())
			}
			p.println()
			if anyPhases(f.Curves[c][k]) {
				p.printf("  %-8s", " d/e/f%")
				for _, cell := range f.Curves[c][k] {
					p.printf(" %s", cell.FormatPhases())
				}
				p.println()
			}
		}
	}
	return p.Err()
}

func anyPhases(cells []Cell) bool {
	for _, cell := range cells {
		if cell.HasPhases {
			return true
		}
	}
	return false
}
