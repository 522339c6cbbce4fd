package harness

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"strings"
	"testing"

	"sdcmd/internal/core"
	"sdcmd/internal/lattice"
	"sdcmd/internal/strategy"
)

func TestModeParse(t *testing.T) {
	for _, m := range []Mode{ModeModel, ModeMeasured} {
		got, err := ParseMode(m.String())
		if err != nil || got != m {
			t.Errorf("round trip %v: %v, %v", m, got, err)
		}
	}
	if _, err := ParseMode("nope"); err == nil {
		t.Error("bad mode accepted")
	}
	if Mode(9).String() != "Mode(9)" {
		t.Error("unknown mode string")
	}
}

func TestOptionsValidation(t *testing.T) {
	bad := []Options{
		{Threads: []int{0}},
		{MeasuredCells: 2},
		{MeasuredSteps: -1},
	}
	for i, o := range bad {
		if _, err := RunTable1(o); err == nil {
			t.Errorf("bad options %d accepted", i)
		}
	}
}

func TestCellFormat(t *testing.T) {
	if got := (Cell{Blank: true}).Format(); !strings.Contains(got, "--") {
		t.Errorf("blank cell = %q", got)
	}
	if got := (Cell{Speedup: 12.31}).Format(); !strings.Contains(got, "12.31") {
		t.Errorf("cell = %q", got)
	}
}

func TestRunTable1Model(t *testing.T) {
	res, err := RunTable1(Options{Mode: ModeModel})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cases) != 4 || len(res.Threads) != 6 {
		t.Fatalf("shape: %d cases, %d threads", len(res.Cases), len(res.Threads))
	}
	// Paper blank pattern.
	small1D := res.Cells[lattice.Small][core.Dim1]
	if !small1D[4].Blank || !small1D[5].Blank {
		t.Error("small 1D must be blank at 12/16 threads")
	}
	if small1D[3].Blank {
		t.Error("small 1D must have a value at 8 threads")
	}
	med1D := res.Cells[lattice.Medium][core.Dim1]
	if !med1D[5].Blank || med1D[4].Blank {
		t.Error("medium 1D blank pattern wrong")
	}
	// Headline: large case 2D at 16 threads lands near the paper's 12.31.
	l2d := res.Cells[lattice.Large3][core.Dim2][5]
	if l2d.Blank || l2d.Speedup < 10.4 || l2d.Speedup > 14.2 {
		t.Errorf("large3 2D @16 = %+v, want ≈12.3", l2d)
	}
	var buf bytes.Buffer
	if err := res.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "TABLE 1") || !strings.Contains(out, "two-dimensional") {
		t.Errorf("render output missing headers:\n%s", out)
	}
	if !strings.Contains(out, "--") {
		t.Error("render must show blank cells")
	}
}

func TestRunFig9Model(t *testing.T) {
	res, err := RunFig9(Options{Mode: ModeModel})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Cases {
		curves := res.Curves[c]
		for _, k := range Fig9Strategies {
			if len(curves[k]) != len(res.Threads) {
				t.Fatalf("%v/%v: %d cells", c, k, len(curves[k]))
			}
		}
		// SDC dominates at every width; CS is worst.
		for ti := range res.Threads {
			sdc := curves[strategy.SDC][ti].Speedup
			for _, k := range []strategy.Kind{strategy.CS, strategy.AtomicCS, strategy.SAP, strategy.RC} {
				if curves[k][ti].Speedup >= sdc {
					t.Errorf("%v @%d: %v (%.2f) >= SDC (%.2f)", c, res.Threads[ti], k, curves[k][ti].Speedup, sdc)
				}
			}
			if cs := curves[strategy.CS][ti].Speedup; cs >= curves[strategy.SAP][ti].Speedup {
				t.Errorf("%v @%d: CS not the slowest", c, res.Threads[ti])
			}
		}
	}
	var buf bytes.Buffer
	if err := res.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "FIG 9") {
		t.Error("render header missing")
	}
}

func TestRunReorderModel(t *testing.T) {
	res, err := RunReorder(Options{Mode: ModeModel, MeasuredCells: 6, MeasuredSteps: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Model mode reproduces the paper's §II.D anchors by construction.
	if s := res.SerialImprovement(); s < 11.5 || s > 12.5 {
		t.Errorf("serial improvement %.1f%%, want ≈12%%", s)
	}
	if p := res.ParallelImprovement(); p < 38.5 || p > 39.5 {
		t.Errorf("parallel improvement %.1f%%, want ≈39%%", p)
	}
	var buf bytes.Buffer
	if err := res.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "data reordering") {
		t.Error("render header missing")
	}
}

func TestRunTable1Measured(t *testing.T) {
	// Smoke test of the real-execution path with a tiny replica and
	// small thread counts; speedups on a 1-core host are not asserted,
	// only that the machinery produces a full, non-blank 2D row.
	res, err := RunTable1(Options{
		Mode:          ModeMeasured,
		Threads:       []int{2},
		Cases:         []lattice.Case{lattice.Small},
		MeasuredCells: 6,
		MeasuredSteps: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	cells := res.Cells[lattice.Small][core.Dim2]
	if len(cells) != 1 || cells[0].Blank || cells[0].Speedup <= 0 {
		t.Errorf("measured 2D cells = %+v", cells)
	}
	// 1D on a 6-cell replica (17.2 Å box, reach 4) cannot decompose:
	// blank, mirroring the paper's restriction.
	cells1d := res.Cells[lattice.Small][core.Dim1]
	if !cells1d[0].Blank {
		t.Errorf("measured 1D on tiny replica should be blank, got %+v", cells1d)
	}
}

func TestRunFig9Measured(t *testing.T) {
	res, err := RunFig9(Options{
		Mode:          ModeMeasured,
		Threads:       []int{2},
		Cases:         []lattice.Case{lattice.Small},
		MeasuredCells: 6,
		MeasuredSteps: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range Fig9Strategies {
		c := res.Curves[lattice.Small][k]
		if len(c) != 1 || c[0].Speedup <= 0 {
			t.Errorf("%v: cells = %+v", k, c)
		}
	}
}

func TestRunReorderMeasured(t *testing.T) {
	res, err := RunReorder(Options{
		Mode:          ModeMeasured,
		Threads:       []int{2},
		MeasuredCells: 8,
		MeasuredSteps: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.SerialOpt <= 0 || res.SerialUnopt <= 0 || res.ParallelOpt <= 0 || res.ParallelUnopt <= 0 {
		t.Errorf("non-positive times: %+v", res)
	}
}

// runCSV runs the named experiment from the table and writes its CSV.
func runCSV(name string, opts Options, w io.Writer) error {
	exp, ok := LookupExperiment(name)
	if !ok {
		return fmt.Errorf("unknown experiment %q", name)
	}
	res, err := exp.Run(opts)
	if err != nil {
		return err
	}
	return res.WriteCSV(w)
}

func TestCSVOutputs(t *testing.T) {
	opts := Options{Mode: ModeModel, Threads: []int{2, 16}}
	for _, name := range []string{"table1", "fig9"} {
		var buf bytes.Buffer
		if err := runCSV(name, opts, &buf); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		recs, err := csv.NewReader(&buf).ReadAll()
		if err != nil {
			t.Fatalf("%s: bad CSV: %v", name, err)
		}
		if len(recs) < 3 {
			t.Errorf("%s: only %d CSV rows", name, len(recs))
		}
		if recs[1][0] != name {
			t.Errorf("%s: experiment column = %q", name, recs[1][0])
		}
	}
	var buf bytes.Buffer
	if err := runCSV("reorder", Options{Mode: ModeModel, MeasuredCells: 6, MeasuredSteps: 1}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "serial_improvement_pct") {
		t.Error("reorder CSV missing improvement row")
	}
	if err := runCSV("bogus", opts, &buf); err == nil {
		t.Error("unknown experiment accepted")
	}
	if err := runCSV("table1", Options{Threads: []int{-1}}, &buf); err == nil {
		t.Error("bad options accepted")
	}
}

func TestTable1CSVBlankCells(t *testing.T) {
	res, err := RunTable1(Options{Mode: ModeModel, Threads: []int{16}, Cases: []lattice.Case{lattice.Small}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	// 1D @16 on the small case is blank: value field empty.
	found := false
	for _, r := range recs[1:] {
		if r[2] == "sdc-1D" && r[3] == "16" {
			found = true
			if r[4] != "" {
				t.Errorf("blank cell has value %q", r[4])
			}
		}
	}
	if !found {
		t.Error("1D row missing from CSV")
	}
}
