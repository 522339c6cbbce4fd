package strategy

import (
	"fmt"
	"strings"

	"sdcmd/internal/core"
	"sdcmd/internal/neighbor"
	"sdcmd/internal/telemetry"
	"sdcmd/internal/vec"
)

// Kind enumerates the reduction strategies of the paper's evaluation.
type Kind int

// The strategies. SDC is the paper's contribution; the others are the
// comparison baselines of Fig. 9 (§I's five solution classes, minus
// transactional memory which commodity hardware of neither 2009 nor
// this reproduction provides, plus the serial reference).
const (
	// Serial runs the plain sequential loops of Figs. 1/2.
	Serial Kind = iota
	// SDC is Spatial Decomposition Coloring (Figs. 7/8).
	SDC
	// CS wraps every shared update in one critical section (mutex).
	CS
	// AtomicCS uses lock-free CAS adds instead of a mutex — the
	// "atomic" flavor of the paper's first solution class.
	AtomicCS
	// SAP privatizes the reduction array per thread and merges.
	SAP
	// RC recomputes each pair twice on a full list so threads write
	// only their own atoms.
	RC
)

var kindNames = map[Kind]string{
	Serial:   "serial",
	SDC:      "sdc",
	CS:       "cs",
	AtomicCS: "atomic",
	SAP:      "sap",
	RC:       "rc",
}

// String returns the short lowercase name used by CLIs.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// ParseKind is the inverse of String (case-insensitive).
func ParseKind(s string) (Kind, error) {
	ls := strings.ToLower(strings.TrimSpace(s))
	for k, n := range kindNames {
		if n == ls {
			return k, nil
		}
	}
	return 0, fmt.Errorf("strategy: unknown kind %q (want one of serial, sdc, cs, atomic, sap, rc)", s)
}

// Kinds lists all strategies in presentation order.
var Kinds = []Kind{Serial, SDC, CS, AtomicCS, SAP, RC}

// Elem is a per-atom reduction element: float64 for the density and
// pair-energy sweeps, vec.Vec3 for the force sweep.
type Elem interface{ float64 | vec.Vec3 }

// Terms fills the contributions of the pairs (i, js[k]) of one chunk of
// atom i's neighbor row into scratch the strategy owns: atom i's share
// into ci[k] and, for a scalar, atom js[k]'s share into cj[k]. It writes
// nothing else; a vector kernel may use cj as scratch. len(ci) and
// len(cj) equal len(js), which is at most ChunkPairs.
//
// The strategy alone writes the reduction array: it adds each chunk into
// the slots it picks, in row order — the shared array (Serial, SDC), a
// thread-private copy (SAP), the shared array under a mutex or CAS once
// per pair (CS, AtomicCS), or atom i's slot only (RC). A scalar adds
// ci[k] to atom i and cj[k] to atom js[k]; a vector adds ci[k] to atom i
// and subtracts it from atom js[k] (Newton's third law, the §II.D.2
// optimization). Strategies call terms concurrently on distinct
// scratch, so apart from the scratch it must be a pure function of
// (i, js), and direction-consistent: terms(j, [i]) puts into ci what
// terms(i, [j]) gives atom j, because RC evaluates each pair from both
// ends and keeps only atom i's side.
type Terms[T Elem] func(i int32, js []int32, ci, cj []T)

// Reducer executes the two irregular-reduction sweeps of the EAM force
// calculation under one scheduling/synchronization policy.
type Reducer interface {
	// Kind identifies the policy.
	Kind() Kind
	// Threads returns the worker count (1 for Serial).
	Threads() int
	// SweepScalar accumulates terms over all pairs into out
	// (the electron-density loop of Figs. 1/7). out is NOT zeroed.
	SweepScalar(out []float64, terms Terms[float64])
	// SweepVector accumulates terms over all pairs into out
	// (the force loop of Figs. 2/8). out is NOT zeroed.
	SweepVector(out []vec.Vec3, terms Terms[vec.Vec3])
	// ParallelForAtoms runs body over [0, N) — the embedding phase,
	// which has no cross-iteration dependence (§II.C phase 2).
	ParallelForAtoms(body func(start, end, tid int))
	// PairWork returns the number of pairs one scalar sweep evaluates
	// — the work-accounting input of the perf model (RC does twice the
	// pair work, §IV).
	PairWork() int
}

// Config assembles a Reducer.
type Config struct {
	// Kind selects the strategy.
	Kind Kind
	// List is the half neighbor list (all strategies consume half
	// lists; RC derives its full list internally).
	List *neighbor.List
	// Pool supplies workers; nil is allowed for Serial only.
	Pool *Pool
	// Decomp is the SDC decomposition; required for Kind SDC.
	Decomp *core.Decomposition
	// Telemetry, when non-nil, receives per-color sweep times from the
	// SDC reducer (worker-level accumulation is attached to the Pool
	// separately via Pool.SetTelemetry).
	Telemetry *telemetry.Recorder
}

// New builds the reducer for cfg.
func New(cfg Config) (Reducer, error) {
	if cfg.List == nil {
		return nil, fmt.Errorf("strategy: nil neighbor list")
	}
	if !cfg.List.Half {
		return nil, fmt.Errorf("strategy: reducers require a half neighbor list")
	}
	threads := 1
	if cfg.Kind != Serial {
		if cfg.Pool == nil {
			return nil, fmt.Errorf("strategy: %v requires a worker pool", cfg.Kind)
		}
		threads = cfg.Pool.Threads()
	}
	bufs := newRowBufs(threads)
	switch cfg.Kind {
	case Serial:
		return &serialReducer{list: cfg.List, bufs: bufs}, nil
	case SDC:
		if err := validateDecomp(cfg); err != nil {
			return nil, err
		}
		return newSDCReducer(cfg, bufs), nil
	case CS:
		return &csReducer{list: cfg.List, pool: cfg.Pool, bufs: bufs}, nil
	case AtomicCS:
		return &atomicReducer{list: cfg.List, pool: cfg.Pool, bufs: bufs}, nil
	case SAP:
		return &sapReducer{list: cfg.List, pool: cfg.Pool, bufs: bufs}, nil
	case RC:
		return &rcReducer{full: cfg.List.ToFull(), pool: cfg.Pool, bufs: bufs}, nil
	default:
		return nil, fmt.Errorf("strategy: unknown kind %v", cfg.Kind)
	}
}

// validateDecomp checks the SDC decomposition requirements: the
// coloring's safety radius must cover the list's reach, and the
// partition must cover exactly the list's atoms.
func validateDecomp(cfg Config) error {
	if cfg.Decomp == nil {
		return fmt.Errorf("strategy: SDC requires a decomposition")
	}
	if cfg.Decomp.Reach < cfg.List.Cutoff+cfg.List.Skin-1e-12 {
		return fmt.Errorf("strategy: decomposition reach %g < list reach %g — coloring unsafe",
			cfg.Decomp.Reach, cfg.List.Cutoff+cfg.List.Skin)
	}
	if len(cfg.Decomp.PartIndex) != cfg.List.N() {
		return fmt.Errorf("strategy: decomposition covers %d atoms, list %d",
			len(cfg.Decomp.PartIndex), cfg.List.N())
	}
	return nil
}
