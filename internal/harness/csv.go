package harness

import (
	"encoding/csv"
	"io"
	"strconv"
)

// WriteCSV emits the experiment in machine-readable long form:
// one row per (case, series, threads) observation. Blank cells become
// empty value fields.
func (t *Table1) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"experiment", "case", "series", "threads", "speedup",
		"density_share", "embed_share", "force_share"}); err != nil {
		return err
	}
	for _, c := range t.Cases {
		for _, dim := range Dims {
			for ti, cell := range t.Cells[c][dim] {
				val := ""
				if !cell.Blank {
					val = strconv.FormatFloat(cell.Speedup, 'f', 4, 64)
				}
				row := []string{"table1", c.String(), "sdc-" + dim.String(),
					strconv.Itoa(t.Threads[ti]), val}
				row = append(row, phaseFields(cell)...)
				if err := cw.Write(row); err != nil {
					return err
				}
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// phaseFields renders the per-phase share columns; cells without phase
// data (model mode, blanks) yield empty fields.
func phaseFields(c Cell) []string {
	if !c.HasPhases || c.Blank {
		return []string{"", "", ""}
	}
	return []string{
		strconv.FormatFloat(c.DensityShare, 'f', 4, 64),
		strconv.FormatFloat(c.EmbedShare, 'f', 4, 64),
		strconv.FormatFloat(c.ForceShare, 'f', 4, 64),
	}
}

// WriteCSV emits the Fig. 9 curves in the same long form.
func (f *Fig9) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"experiment", "case", "series", "threads", "speedup",
		"density_share", "embed_share", "force_share"}); err != nil {
		return err
	}
	for _, c := range f.Cases {
		for _, k := range Fig9Strategies {
			for ti, cell := range f.Curves[c][k] {
				row := []string{"fig9", c.String(), k.String(),
					strconv.Itoa(f.Threads[ti]),
					strconv.FormatFloat(cell.Speedup, 'f', 4, 64)}
				row = append(row, phaseFields(cell)...)
				if err := cw.Write(row); err != nil {
					return err
				}
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteCSV emits the reorder comparison as four timing rows plus the
// two improvement percentages.
func (r *Reorder) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"experiment", "series", "value"}); err != nil {
		return err
	}
	rows := [][2]string{
		{"serial_unopt_ns", strconv.FormatInt(r.SerialUnopt.Nanoseconds(), 10)},
		{"serial_opt_ns", strconv.FormatInt(r.SerialOpt.Nanoseconds(), 10)},
		{"parallel_unopt_ns", strconv.FormatInt(r.ParallelUnopt.Nanoseconds(), 10)},
		{"parallel_opt_ns", strconv.FormatInt(r.ParallelOpt.Nanoseconds(), 10)},
		{"serial_improvement_pct", strconv.FormatFloat(r.SerialImprovement(), 'f', 2, 64)},
		{"parallel_improvement_pct", strconv.FormatFloat(r.ParallelImprovement(), 'f', 2, 64)},
	}
	for _, row := range rows {
		if err := cw.Write([]string{"reorder", row[0], row[1]}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteCSV emits the NUMA study curves.
func (n *NUMA) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"experiment", "case", "series", "threads", "value"}); err != nil {
		return err
	}
	emit := func(series string, vals []float64) error {
		for ti, v := range vals {
			if err := cw.Write([]string{"numa", n.Case.String(), series,
				strconv.Itoa(n.Threads[ti]),
				strconv.FormatFloat(v, 'f', 4, 64)}); err != nil {
				return err
			}
		}
		return nil
	}
	for _, s := range []struct {
		name string
		vals []float64
	}{
		{"naive", n.Naive},
		{"numa-aware", n.Aware},
		{"ideal", n.Ideal},
		{"improvement", n.Improvement},
	} {
		if err := emit(s.name, s.vals); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
