package harness

import (
	"errors"
	"fmt"
	"time"

	"sdcmd/internal/core"
	"sdcmd/internal/force"
	"sdcmd/internal/lattice"
	"sdcmd/internal/neighbor"
	"sdcmd/internal/reorder"
	"sdcmd/internal/strategy"
	"sdcmd/internal/telemetry"
	"sdcmd/internal/vec"
)

// errInfeasible marks measured-mode combinations equivalent to the
// paper's blanks (per-color subdomains not exceeding threads).
var errInfeasible = errors.New("harness: insufficient per-color parallelism")

// measureSpec describes one measured configuration.
type measureSpec struct {
	kind    strategy.Kind
	dim     core.Dim
	threads int
	// scramble applies a random atom permutation first (the §II.D
	// de-optimized baseline).
	scramble bool
}

// measured is one timed configuration: the paper's accumulated
// density+force wall time plus the §III.A per-phase breakdown of the
// timed loop (warmup excluded).
type measured struct {
	elapsed time.Duration
	// densityShare, embedShare and forceShare are each phase's fraction
	// of the instrumented phase time; they sum to 1 for a non-zero run.
	densityShare, embedShare, forceShare float64
}

// shares converts a telemetry snapshot into phase fractions.
func shares(m telemetry.Metrics) (density, embed, force float64) {
	total := m.PhaseSeconds()
	if total <= 0 {
		return 0, 0, 0
	}
	return m.Density.Seconds / total, m.Embed.Seconds / total, m.Force.Seconds / total
}

// measureForceTime times opts.MeasuredSteps force evaluations of the
// configuration on a scaled bcc-Fe replica and returns the accumulated
// density+force wall time — the paper's measured quantity — with its
// phase decomposition.
func measureForceTime(opts Options, spec measureSpec) (measured, error) {
	var none measured
	cfg, err := lattice.ScaledCase(opts.MeasuredCells)
	if err != nil {
		return none, err
	}
	cfg.Jitter(0.05, 1234)
	pos := cfg.Pos
	if spec.scramble {
		perm := reorder.Scramble(len(pos), 99)
		pos = perm.ApplyVec3(pos)
	}

	pot, cutoff, skin := reach()
	list, err := neighbor.Builder{Cutoff: cutoff, Skin: skin, Half: true}.Build(cfg.Box, pos)
	if err != nil {
		return none, err
	}

	var dec *core.Decomposition
	var pool *strategy.Pool
	if spec.kind != strategy.Serial {
		pool, err = strategy.NewPool(spec.threads)
		if err != nil {
			return none, err
		}
		defer pool.Close()
	}
	if spec.kind == strategy.SDC {
		dec, err = core.Decompose(cfg.Box, pos, spec.dim, cutoff+skin)
		if err != nil {
			return none, err
		}
		if dec.SubdomainsPerColor() <= spec.threads && spec.dim == core.Dim1 {
			return none, fmt.Errorf("%w: %d per color, %d threads", errInfeasible, dec.SubdomainsPerColor(), spec.threads)
		}
	}
	red, err := strategy.New(strategy.Config{Kind: spec.kind, List: list, Pool: pool, Decomp: dec})
	if err != nil {
		return none, err
	}
	var chk *strategy.CheckedReducer
	if opts.Check {
		chk = strategy.NewCheckedReducer(red)
		red = chk
	}
	eng, err := force.NewEngine(pot, cfg.Box)
	if err != nil {
		return none, err
	}
	f := make([]vec.Vec3, len(pos))
	// Warmup evaluation (first-touch allocation, cache fill).
	if _, err := eng.Compute(red, pos, f); err != nil {
		return none, err
	}
	// The recorder attaches after warmup so the phase breakdown covers
	// exactly the timed loop.
	rec := telemetry.NewRecorder()
	eng.SetTelemetry(rec)
	start := time.Now()
	for s := 0; s < opts.MeasuredSteps; s++ {
		if _, err := eng.Compute(red, pos, f); err != nil {
			return none, err
		}
	}
	elapsed := time.Since(start)
	if chk != nil {
		if err := chk.Err(); err != nil {
			return none, fmt.Errorf("harness: %v/%v sweep failed the write-set check: %w", spec.kind, spec.dim, err)
		}
	}
	res := measured{elapsed: elapsed}
	res.densityShare, res.embedShare, res.forceShare = shares(rec.Snapshot())
	return res, nil
}
