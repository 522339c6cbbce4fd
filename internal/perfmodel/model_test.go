package perfmodel

import (
	"errors"
	"math"
	"testing"

	"sdcmd/internal/core"
	"sdcmd/internal/lattice"
	"sdcmd/internal/strategy"
)

// paperTable1 holds the published speedups (Hu et al. 2009, Table 1),
// indexed [case][dim][threadIdx] with threads {2,3,4,8,12,16}; 0 marks
// a blank cell.
var paperThreads = []int{2, 3, 4, 8, 12, 16}

var paperTable1 = map[lattice.Case]map[core.Dim][6]float64{
	lattice.Small: {
		core.Dim1: {1.71, 2.46, 3.07, 4.17, 0, 0},
		core.Dim2: {1.70, 2.46, 3.07, 4.74, 5.90, 6.43},
		core.Dim3: {1.66, 2.40, 2.99, 4.61, 5.74, 6.30},
	},
	lattice.Medium: {
		core.Dim1: {1.84, 2.64, 3.37, 6.24, 6.33, 0},
		core.Dim2: {1.84, 2.65, 3.39, 6.20, 8.89, 10.90},
		core.Dim3: {1.82, 2.65, 3.36, 6.16, 8.76, 10.78},
	},
	lattice.Large3: {
		core.Dim1: {1.86, 2.76, 3.67, 6.82, 9.76, 9.59},
		core.Dim2: {1.87, 2.78, 3.64, 6.74, 9.73, 12.31},
		core.Dim3: {1.86, 2.75, 3.64, 6.64, 9.65, 12.29},
	},
	lattice.Large4: {
		core.Dim1: {1.88, 2.79, 3.66, 6.30, 9.97, 9.82},
		core.Dim2: {1.87, 2.80, 3.65, 6.77, 9.84, 12.42},
		core.Dim3: {1.87, 2.80, 3.67, 6.74, 9.82, 12.34},
	},
}

func modelInputs(t *testing.T) map[lattice.Case]Input {
	t.Helper()
	ppa, err := MeasurePairsPerAtom(8, 3.5, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	out := map[lattice.Case]Input{}
	for _, c := range lattice.Cases {
		in, err := InputForCase(c, ppa)
		if err != nil {
			t.Fatal(err)
		}
		out[c] = in
	}
	return out
}

func TestMeasurePairsPerAtom(t *testing.T) {
	ppa, err := MeasurePairsPerAtom(8, 3.5, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	// bcc Fe with reach 4.0 Å: shells at 2.48 (8), 2.87 (6), 4.05 Å —
	// 14 full neighbors within reach, 7 per atom in a half list.
	if math.Abs(ppa-7.0) > 1e-9 {
		t.Errorf("pairs/atom = %g, want 7", ppa)
	}
	if _, err := MeasurePairsPerAtom(2, 3.5, 0.5); err == nil {
		t.Error("undersized sample accepted")
	}
	if _, err := MeasurePairsPerAtom(8, -1, 0.5); err == nil {
		t.Error("negative cutoff accepted")
	}
}

func TestInputForCase(t *testing.T) {
	in, err := InputForCase(lattice.Medium, 7)
	if err != nil {
		t.Fatal(err)
	}
	if in.Atoms != 265302 || in.HalfPairs != 7*265302 {
		t.Errorf("medium input = %+v", in)
	}
	if math.Abs(in.Edge-51*lattice.FeLatticeConstant) > 1e-9 {
		t.Errorf("medium edge = %g", in.Edge)
	}
	if _, err := InputForCase(lattice.Case(99), 7); err == nil {
		t.Error("unknown case accepted")
	}
	if _, err := InputForCase(lattice.Small, 0); err == nil {
		t.Error("zero pairs/atom accepted")
	}
}

func TestValidation(t *testing.T) {
	m := XeonE7320()
	bad := Input{Atoms: 0, HalfPairs: 1, Edge: 1}
	if _, err := m.SerialTime(bad); err == nil {
		t.Error("bad input accepted by SerialTime")
	}
	if _, err := m.Time(strategy.SDC, core.Dim2, 4, bad); err == nil {
		t.Error("bad input accepted by Time")
	}
	good := Input{Atoms: 1000, HalfPairs: 7000, Edge: 60}
	if _, err := m.Time(strategy.SDC, core.Dim2, 0, good); err == nil {
		t.Error("0 threads accepted")
	}
	if _, err := m.Time(strategy.Kind(99), core.Dim2, 4, good); err == nil {
		t.Error("unknown strategy accepted")
	}
	if _, err := m.Speedup(strategy.SDC, core.Dim2, 4, bad); err == nil {
		t.Error("bad input accepted by Speedup")
	}
}

// TestCalibrationAgainstTable1 is the reproduction gate for experiment
// E1: every non-blank Table 1 cell must be matched within tolerance
// (15 % for the well-conditioned 2D/3D columns, 30 % for 1D whose
// granularity behaviour the paper under-specifies), and the blank
// pattern must match exactly.
func TestCalibrationAgainstTable1(t *testing.T) {
	m := XeonE7320()
	ins := modelInputs(t)
	for _, c := range lattice.Cases {
		for _, dim := range []core.Dim{core.Dim1, core.Dim2, core.Dim3} {
			want := paperTable1[c][dim]
			for ti, p := range paperThreads {
				got, err := m.Speedup(strategy.SDC, dim, p, ins[c])
				if want[ti] == 0 {
					if !errors.Is(err, ErrInsufficientParallelism) {
						t.Errorf("%v %v %d threads: paper blank, model gave (%g, %v)", c, dim, p, got, err)
					}
					continue
				}
				if err != nil {
					t.Errorf("%v %v %d threads: model blank (%v), paper has %g", c, dim, p, err, want[ti])
					continue
				}
				tol := 0.15
				if dim == core.Dim1 {
					tol = 0.30
				}
				rel := math.Abs(got-want[ti]) / want[ti]
				if rel > tol {
					t.Errorf("%v %v %d threads: model %.2f vs paper %.2f (%.0f%% off)", c, dim, p, got, want[ti], rel*100)
				}
			}
		}
	}
}

// TestFig9Shape asserts the qualitative findings of the paper's §IV
// discussion of Fig. 9 for every test case.
func TestFig9Shape(t *testing.T) {
	m := XeonE7320()
	ins := modelInputs(t)
	for _, c := range lattice.Cases {
		in := ins[c]
		get := func(k strategy.Kind, p int) float64 {
			s, err := m.Speedup(k, core.Dim2, p, in)
			if err != nil {
				t.Fatalf("%v %v %d: %v", c, k, p, err)
			}
			return s
		}
		for _, p := range paperThreads {
			sdc := get(strategy.SDC, p)
			cs := get(strategy.CS, p)
			sap := get(strategy.SAP, p)
			rc := get(strategy.RC, p)
			// "our two-dimensional SDC method … has highest speedup
			// than other methods on all of test cases".
			if sdc <= cs || sdc <= sap || sdc <= rc {
				t.Errorf("%v @%d: SDC %.2f not the best (cs %.2f sap %.2f rc %.2f)", c, p, sdc, cs, sap, rc)
			}
			// "Critical Section (CS) method achieves lowest efficiency".
			if cs >= sap || cs >= rc || cs >= sdc {
				t.Errorf("%v @%d: CS %.2f not the worst", c, p, cs)
			}
			// CS is "not feasible": never a real speedup.
			if cs > 1.2 {
				t.Errorf("%v @%d: CS speedup %.2f too healthy", c, p, cs)
			}
		}
		// "When the number of executing cores is less than 8, SAP …
		// achieves better performance than CS and RC" (small/medium
		// panels show this crossover clearly).
		if c == lattice.Small || c == lattice.Medium {
			for _, p := range []int{2, 3, 4} {
				if sap, rc := get(strategy.SAP, p), get(strategy.RC, p); sap <= rc {
					t.Errorf("%v @%d: SAP %.2f should beat RC %.2f below 8 cores", c, p, sap, rc)
				}
			}
		}
		// "it [RC] gets better performance when the number of executing
		// cores is more than 8".
		for _, p := range []int{12, 16} {
			if sap, rc := get(strategy.SAP, p), get(strategy.RC, p); rc <= sap {
				t.Errorf("%v @%d: RC %.2f should beat SAP %.2f above 8 cores", c, p, rc, sap)
			}
		}
		// "SAP … performance will degrade with the increase of the
		// number of executing cores" past 8.
		if s8, s16 := get(strategy.SAP, 8), get(strategy.SAP, 16); s16 >= s8 {
			t.Errorf("%v: SAP did not degrade past 8 cores (%.2f -> %.2f)", c, s8, s16)
		}
		// "SDC method can gain about 1.7-fold increase in performance
		// as compared to RC method on medium and large test cases."
		if c != lattice.Small {
			ratio := get(strategy.SDC, 16) / get(strategy.RC, 16)
			if ratio < 1.4 || ratio > 2.1 {
				t.Errorf("%v: SDC/RC @16 = %.2f, want ≈1.7", c, ratio)
			}
		}
	}
}

func TestDim2BeatsOthersAtScale(t *testing.T) {
	// §IV: "two-dimensional SDC method achieves highest efficiency";
	// 3D "degrades the performance but only slightly".
	m := XeonE7320()
	ins := modelInputs(t)
	for _, c := range lattice.Cases {
		d2, err := m.Speedup(strategy.SDC, core.Dim2, 16, ins[c])
		if err != nil {
			t.Fatal(err)
		}
		d3, err := m.Speedup(strategy.SDC, core.Dim3, 16, ins[c])
		if err != nil {
			t.Fatal(err)
		}
		if d3 >= d2 {
			t.Errorf("%v: 3D %.2f >= 2D %.2f at 16 threads", c, d3, d2)
		}
		if (d2-d3)/d2 > 0.10 {
			t.Errorf("%v: 3D degradation %.0f%% vs 2D — paper says 'only slightly'", c, (d2-d3)/d2*100)
		}
	}
}

func TestScalabilityWithSize(t *testing.T) {
	// §IV: performance improves "with the increase in the number of
	// atoms": speedup at 16 threads must grow monotonically with case
	// size for 2D SDC.
	m := XeonE7320()
	ins := modelInputs(t)
	prev := 0.0
	for _, c := range lattice.Cases {
		s, err := m.Speedup(strategy.SDC, core.Dim2, 16, ins[c])
		if err != nil {
			t.Fatal(err)
		}
		if s <= prev {
			t.Errorf("%v: speedup %.2f did not grow with system size (prev %.2f)", c, s, prev)
		}
		prev = s
	}
}

// TestFeasible1D pins Speedup's 1D rule, which gives Table 1 its
// blanks: 1D SDC needs more subdomains per color than threads.
func TestFeasible1D(t *testing.T) {
	m := XeonE7320()
	ins := modelInputs(t)
	feasible := func(c lattice.Case, threads int) bool {
		t.Helper()
		_, err := m.Speedup(strategy.SDC, core.Dim1, threads, ins[c])
		if err != nil && !errors.Is(err, ErrInsufficientParallelism) {
			t.Fatalf("%v @%d: %v", c, threads, err)
		}
		return err == nil
	}
	// Small case: feasible at 8, not at 12/16 (Table 1 blanks).
	if !feasible(lattice.Small, 8) {
		t.Error("small @8 should be feasible for 1D")
	}
	for _, p := range []int{12, 16} {
		if feasible(lattice.Small, p) {
			t.Errorf("small @%d should be infeasible for 1D", p)
		}
	}
	if feasible(lattice.Medium, 16) {
		t.Error("medium @16 should be infeasible for 1D")
	}
	if !feasible(lattice.Large3, 16) {
		t.Error("large3 @16 should be feasible for 1D")
	}
}

func TestSerialSpeedupIsOne(t *testing.T) {
	m := XeonE7320()
	in := Input{Atoms: 100000, HalfPairs: 700000, Edge: 100}
	s, err := m.Speedup(strategy.Serial, core.Dim2, 1, in)
	if err != nil || math.Abs(s-1) > 1e-12 {
		t.Errorf("serial speedup = %g, %v", s, err)
	}
}

func TestOneThreadParallelSlowerThanSerial(t *testing.T) {
	// Parallel machinery on one core must cost ≥ serial (overheads).
	m := XeonE7320()
	in := Input{Atoms: 100000, HalfPairs: 700000, Edge: 100}
	for _, k := range []strategy.Kind{strategy.SDC, strategy.CS, strategy.AtomicCS, strategy.SAP, strategy.RC} {
		s, err := m.Speedup(k, core.Dim2, 1, in)
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		if s > 1 {
			t.Errorf("%v on 1 thread: speedup %.3f > 1", k, s)
		}
	}
}
