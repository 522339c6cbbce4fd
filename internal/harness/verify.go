package harness

import (
	"io"
	"math"

	"sdcmd/internal/core"
	"sdcmd/internal/force"
	"sdcmd/internal/lattice"
	"sdcmd/internal/neighbor"
	"sdcmd/internal/strategy"
	"sdcmd/internal/vec"
)

// VerifyResult is one strategy's verdict from the verification pass.
type VerifyResult struct {
	Kind strategy.Kind
	// Shape is the write discipline the strategy declared.
	Shape strategy.WriteShape
	// Conflicts are the dynamic write-set violations observed on the
	// real sweeps (empty for a correct strategy).
	Conflicts []strategy.RaceConflict
	// MaxForceDiff is the largest per-component deviation of the
	// strategy's forces from the serial reference (eV/Å); floating-
	// point reassociation keeps it nonzero but tiny.
	MaxForceDiff float64
}

// Verification is the result of VerifyStrategies: every reduction
// strategy executed real density+force sweeps on a bcc-Fe replica under
// the strategy.CheckedReducer write-set check, plus the static
// AuditSDCSchedule replay of the SDC coloring.
type Verification struct {
	Cells, Atoms, Threads int
	Results               []VerifyResult
	// AuditColors and AuditConflicts summarize the static SDC schedule
	// audit (§II.B safety theorem).
	AuditColors, AuditConflicts int
}

// Failed reports whether any strategy produced conflicts, statically or
// dynamically.
func (v *Verification) Failed() bool {
	if v.AuditConflicts > 0 {
		return true
	}
	for _, r := range v.Results {
		if len(r.Conflicts) > 0 {
			return true
		}
	}
	return false
}

// VerifyStrategies runs the §II.B correctness pass: each strategy's
// reducer is wrapped in a strategy.CheckedReducer and drives one full
// EAM force evaluation (density sweep, embedding, force sweep) on a
// jittered bcc-Fe replica of Options.MeasuredCells per side; conflicts
// and force deviations from the serial reference are collected. The SDC
// schedule is additionally audited statically.
func VerifyStrategies(opts Options) (*Verification, error) {
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return nil, err
	}
	threads := opts.Threads[len(opts.Threads)-1]

	cfg, err := lattice.ScaledCase(opts.MeasuredCells)
	if err != nil {
		return nil, err
	}
	cfg.Jitter(0.05, 1234)
	pot, cutoff, skin := reach()
	list, err := neighbor.Builder{Cutoff: cutoff, Skin: skin, Half: true}.Build(cfg.Box, cfg.Pos)
	if err != nil {
		return nil, err
	}
	dec, err := core.Decompose(cfg.Box, cfg.Pos, core.Dim2, cutoff+skin)
	if err != nil {
		return nil, err
	}
	eng, err := force.NewEngine(pot, cfg.Box)
	if err != nil {
		return nil, err
	}

	v := &Verification{Cells: opts.MeasuredCells, Atoms: len(cfg.Pos), Threads: threads}

	audit, err := strategy.AuditSDCSchedule(dec, list, threads)
	if err != nil {
		return nil, err
	}
	v.AuditColors = dec.NumColors()
	v.AuditConflicts = len(audit)

	// Serial reference forces.
	ref := make([]vec.Vec3, len(cfg.Pos))
	serial, err := strategy.New(strategy.Config{Kind: strategy.Serial, List: list})
	if err != nil {
		return nil, err
	}
	if _, err := eng.Compute(serial, cfg.Pos, ref); err != nil {
		return nil, err
	}

	for _, k := range strategy.Kinds {
		var pool *strategy.Pool
		if k != strategy.Serial {
			pool, err = strategy.NewPool(threads)
			if err != nil {
				return nil, err
			}
		}
		red, err := strategy.New(strategy.Config{Kind: k, List: list, Pool: pool, Decomp: dec})
		if err != nil {
			return nil, err
		}
		chk := strategy.NewCheckedReducer(red)
		f := make([]vec.Vec3, len(cfg.Pos))
		_, err = eng.Compute(chk, cfg.Pos, f)
		if pool != nil {
			pool.Close()
		}
		if err != nil {
			return nil, err
		}
		maxDiff := 0.0
		for i := range f {
			for a := 0; a < 3; a++ {
				if d := math.Abs(f[i][a] - ref[i][a]); d > maxDiff {
					maxDiff = d
				}
			}
		}
		v.Results = append(v.Results, VerifyResult{
			Kind:         k,
			Shape:        chk.Shape(),
			Conflicts:    chk.Conflicts(),
			MaxForceDiff: maxDiff,
		})
	}
	return v, nil
}

// Render prints the verification verdicts.
func (v *Verification) Render(w io.Writer) error {
	p := &printer{w: w}
	p.printf("STRATEGY VERIFICATION — %d atoms (%d cells/side), %d threads\n", v.Atoms, v.Cells, v.Threads)
	p.printf("  static SDC schedule audit: %d colors, %d conflicts\n", v.AuditColors, v.AuditConflicts)
	p.printf("  %-8s %-13s %10s %14s  %s\n", "strategy", "write shape", "conflicts", "max |Δf|", "verdict")
	for _, r := range v.Results {
		verdict := "ok"
		if len(r.Conflicts) > 0 {
			verdict = "RACE: " + r.Conflicts[0].String()
		}
		p.printf("  %-8s %-13s %10d %14.3g  %s\n",
			r.Kind, r.Shape, len(r.Conflicts), r.MaxForceDiff, verdict)
	}
	return p.Err()
}
