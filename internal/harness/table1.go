package harness

import (
	"errors"
	"fmt"
	"io"

	"sdcmd/internal/core"
	"sdcmd/internal/lattice"
	"sdcmd/internal/perfmodel"
	"sdcmd/internal/strategy"
)

// Dims are the decomposition dimensionalities of Table 1.
var Dims = []core.Dim{core.Dim1, core.Dim2, core.Dim3}

// Table1 is experiment E1: the speedups of 1D/2D/3D SDC on every case
// at every thread count.
type Table1 struct {
	Mode    Mode
	Threads []int
	Cases   []lattice.Case
	// Cells[case][dim][threadIdx].
	Cells map[lattice.Case]map[core.Dim][]Cell
}

// RunTable1 executes E1.
func RunTable1(opts Options) (*Table1, error) {
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return nil, err
	}
	t := &Table1{
		Mode:    opts.Mode,
		Threads: opts.Threads,
		Cases:   opts.Cases,
		Cells:   map[lattice.Case]map[core.Dim][]Cell{},
	}
	switch opts.Mode {
	case ModeModel:
		if err := t.runModel(opts); err != nil {
			return nil, err
		}
	case ModeMeasured:
		if err := t.runMeasured(opts); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("harness: unknown mode %v", opts.Mode)
	}
	return t, nil
}

func (t *Table1) runModel(opts Options) error {
	_, cutoff, skin := reach()
	ppa, err := perfmodel.MeasurePairsPerAtom(8, cutoff, skin)
	if err != nil {
		return err
	}
	for _, c := range opts.Cases {
		in, err := perfmodel.InputForCase(c, ppa)
		if err != nil {
			return err
		}
		t.Cells[c] = map[core.Dim][]Cell{}
		for _, dim := range Dims {
			cells := make([]Cell, len(opts.Threads))
			for ti, p := range opts.Threads {
				s, err := opts.Machine.Speedup(strategy.SDC, dim, p, in)
				switch {
				case errors.Is(err, perfmodel.ErrInsufficientParallelism):
					cells[ti] = Cell{Blank: true}
				case err != nil:
					return err
				default:
					cells[ti] = Cell{Speedup: s}
				}
			}
			t.Cells[c][dim] = cells
		}
	}
	return nil
}

func (t *Table1) runMeasured(opts Options) error {
	for _, c := range opts.Cases {
		t.Cells[c] = map[core.Dim][]Cell{}
		serial, err := measureForceTime(opts, measureSpec{kind: strategy.Serial, threads: 1})
		if err != nil {
			return err
		}
		for _, dim := range Dims {
			cells := make([]Cell, len(opts.Threads))
			for ti, p := range opts.Threads {
				par, err := measureForceTime(opts, measureSpec{kind: strategy.SDC, dim: dim, threads: p})
				if err != nil {
					if errors.Is(err, core.ErrTooFewSubdomains) || errors.Is(err, errInfeasible) {
						cells[ti] = Cell{Blank: true}
						continue
					}
					return err
				}
				cells[ti] = cellFromMeasured(serial.elapsed, par)
			}
			t.Cells[c][dim] = cells
		}
	}
	return nil
}

// Render prints the table in the layout of the paper's Table 1.
func (t *Table1) Render(w io.Writer) error {
	p := &printer{w: w}
	p.printf("TABLE 1 — speedups of SDC methods (%s mode)\n", t.Mode)
	for _, c := range t.Cases {
		p.printf("\n%s\n", c)
		p.printf("  %-24s", "threads:")
		for _, th := range t.Threads {
			p.printf(" %5d", th)
		}
		p.println()
		for _, dim := range Dims {
			p.printf("  SDC (%s)%*s", dimName(dim), 24-len("SDC ()")-len(dimName(dim)), "")
			for _, cell := range t.Cells[c][dim] {
				p.printf(" %s", cell.Format())
			}
			p.println()
			printPhaseRow(p, t.Cells[c][dim])
		}
	}
	return p.Err()
}

// printPhaseRow prints the §III.A density/embed/force share triples
// under a measured-mode series; model-mode rows carry no phase data and
// print nothing.
func printPhaseRow(p *printer, cells []Cell) {
	any := false
	for _, cell := range cells {
		if cell.HasPhases {
			any = true
			break
		}
	}
	if !any {
		return
	}
	p.printf("  %-24s", "  phases d/e/f (%):")
	for _, cell := range cells {
		p.printf(" %s", cell.FormatPhases())
	}
	p.println()
}

func dimName(d core.Dim) string {
	switch d {
	case core.Dim1:
		return "one-dimensional"
	case core.Dim2:
		return "two-dimensional"
	case core.Dim3:
		return "three-dimensional"
	}
	return d.String()
}
