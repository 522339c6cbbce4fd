// Package perfmodel is an analytic execution-time model of the paper's
// testbed — four quad-core Intel Xeon E7320 sockets (16 cores, 4 MB
// L2/socket, §III.A) — used to regenerate Table 1 and Fig. 9 on hosts
// that do not have 16 physical cores (see DESIGN.md §4, "Hardware"
// substitution). The model consumes *measured* workload statistics from
// the real simulator (atom counts, half-list pair counts, subdomain
// layouts from the real SDC code) and layers the machine effects the
// paper's §IV discusses on top:
//
//   - memory-bandwidth saturation that caps all strategies near 12.4×
//     at 16 threads,
//   - per-color barrier + fork/join costs (×2 sweeps per step),
//   - whole-subdomain scheduling granularity (the cause of 1D SDC's
//     saturation and the Table 1 blanks),
//   - serialized critical sections for CS, per-update CAS traffic for
//     the atomic variant,
//   - privatized-copy merges and cache pressure for SAP,
//   - doubled pair work for RC.
//
// Times are in abstract cost units; only ratios (speedups) are
// meaningful, exactly as in the paper's evaluation.
package perfmodel

import (
	"errors"
	"fmt"
	"math"

	"sdcmd/internal/core"
	"sdcmd/internal/strategy"
)

// Machine holds the calibrated hardware/runtime constants. The defaults
// in XeonE7320 were fitted to the Table 1 / Fig 9 anchor points (see
// model_test.go's calibration suite).
type Machine struct {
	// CPair is the cost of one pair interaction in one sweep; CAtom is
	// the per-atom embedding-phase cost.
	CPair, CAtom float64
	// Beta is the per-extra-thread bandwidth/coherence drag: effective
	// time is multiplied by 1 + Beta·(P−1).
	Beta float64
	// BarrierBase and BarrierPerThread model one barrier + dispatch.
	BarrierBase, BarrierPerThread float64
	// LockCost is the serialized cost of one mutex-protected update;
	// LockPingPong is the extra coherence cost per additional thread.
	LockCost, LockPingPong float64
	// AtomicCost and AtomicPingPong are the CAS-loop analogues.
	AtomicCost, AtomicPingPong float64
	// MergeCost is SAP's per-element cost of merging one private copy
	// into the shared array (serialized across threads).
	MergeCost float64
	// SAPCacheDrag adds bandwidth drag per thread from the privatized
	// copies competing for cache (§IV: "competes with cache space").
	SAPCacheDrag float64
	// RCBeta replaces Beta for RC (no write sharing at all, so less
	// coherence drag despite the bigger list).
	RCBeta float64
	// Sched is the per-sweep parallel scheduling/partition-traversal
	// overhead coefficient, charged as Sched·√N to every parallel
	// strategy (P-independent: the partition arrays are walked once per
	// sweep regardless of thread count).
	Sched float64
	// Loc is the per-dimensionality cache-locality multiplier on pair
	// cost: index 1..3. §IV credits 2D with the best surface/volume.
	Loc [4]float64
	// ModelReach is the decomposition granularity (Å) the paper's own
	// runs exhibit (its Table 1 blanks and 1D saturation imply ≈2.2 Å
	// effective reach); the model decomposes cases at this reach.
	ModelReach float64
}

// XeonE7320 returns the calibrated machine description.
func XeonE7320() Machine {
	return Machine{
		CPair:            1.0,
		CAtom:            1.4,
		Beta:             0.013,
		BarrierBase:      400,
		BarrierPerThread: 60,
		LockCost:         1.35,
		LockPingPong:     0.28,
		AtomicCost:       0.32,
		AtomicPingPong:   0.05,
		MergeCost:        0.065,
		SAPCacheDrag:     0.0135,
		RCBeta:           0.009,
		Sched:            85,
		Loc:              [4]float64{0, 1.030, 1.000, 1.012},
		ModelReach:       2.2,
	}
}

// Input is the measured workload of one test case.
type Input struct {
	// Atoms is the atom count.
	Atoms int
	// HalfPairs is the half-neighbor-list pair count.
	HalfPairs int
	// Edge is the cubic box edge in Å.
	Edge float64
}

// Validate checks the input describes a real workload.
func (in Input) Validate() error {
	if in.Atoms <= 0 || in.HalfPairs <= 0 || !(in.Edge > 0) {
		return fmt.Errorf("perfmodel: invalid input %+v", in)
	}
	return nil
}

// ErrInsufficientParallelism marks (strategy, threads) combinations the
// paper leaves blank: a 1D decomposition whose per-color subdomain
// count does not exceed the thread count (Table 1's empty cells).
var ErrInsufficientParallelism = errors.New("perfmodel: subdomains per color do not exceed thread count")

// subPerColor decomposes the case's box at the model reach and returns
// subdomains-per-color for dim. It reuses the real SDC geometry code.
func (m Machine) subPerColor(in Input, dim core.Dim) (int, error) {
	bx, err := boxForEdge(in.Edge)
	if err != nil {
		return 0, err
	}
	dec, err := core.Decompose(bx, nil, dim, m.ModelReach)
	if err != nil {
		return 0, err
	}
	return dec.SubdomainsPerColor(), nil
}

// SerialTime is the per-step cost of the optimized sequential code:
// two pair sweeps (density + force) and one embedding pass.
func (m Machine) SerialTime(in Input) (float64, error) {
	if err := in.Validate(); err != nil {
		return 0, err
	}
	return 2*float64(in.HalfPairs)*m.CPair + float64(in.Atoms)*m.CAtom, nil
}

// drag returns the bandwidth multiplier 1 + β(P−1).
func drag(beta float64, p int) float64 { return 1 + beta*float64(p-1) }

// barrier returns the cost of one barrier + dispatch at P threads.
func (m Machine) barrier(p int) float64 {
	return m.BarrierBase + m.BarrierPerThread*float64(p)
}

// Time predicts the per-step force-calculation time for a strategy.
// dim is only consulted for SDC. threads must be >= 1; threads == 1
// models the parallel code run on one core (which is how the paper
// normalizes: speedup is serial time / parallel time on P cores).
func (m Machine) Time(k strategy.Kind, dim core.Dim, threads int, in Input) (float64, error) {
	if err := in.Validate(); err != nil {
		return 0, err
	}
	if threads < 1 {
		return 0, fmt.Errorf("perfmodel: threads %d must be >= 1", threads)
	}
	p := float64(threads)
	pairs := float64(in.HalfPairs)
	atoms := float64(in.Atoms)
	embed := atoms * m.CAtom / p * drag(m.Beta, threads)
	// Parallel-only per-sweep overhead (2 pair sweeps per step).
	sched := 2 * m.Sched * math.Sqrt(atoms)
	if threads == 1 {
		sched = 0
	}

	switch k {
	case strategy.Serial:
		return m.SerialTime(in)
	case strategy.SDC:
		spc, err := m.subPerColor(in, dim)
		if err != nil {
			return 0, err
		}
		if spc <= threads && dim == core.Dim1 {
			return 0, fmt.Errorf("%w: %d per color, %d threads (1D)", ErrInsufficientParallelism, spc, threads)
		}
		colors := dim.Colors()
		// Per color, whole subdomains are scheduled: makespan is
		// ceil(S/P) subdomain units of the color's work W/ (colors·S).
		rounds := math.Ceil(float64(spc) / p)
		perColorPairs := pairs / float64(colors)
		sweep := func() float64 {
			t := 0.0
			for c := 0; c < colors; c++ {
				work := perColorPairs / float64(spc) * rounds * m.CPair * m.Loc[dim]
				t += work*drag(m.Beta, threads) + m.barrier(threads)
			}
			return t
		}
		return sweep() + sweep() + sched + embed, nil // density sweep + force sweep
	case strategy.CS:
		// Compute parallelizes; every pair's two shared updates
		// serialize through the mutex with coherence ping-pong.
		compute := 2 * pairs * m.CPair / p * drag(m.Beta, threads)
		locked := 2 * 2 * pairs * m.LockCost * (1 + m.LockPingPong*(p-1))
		if threads == 1 {
			locked = 2 * 2 * pairs * m.LockCost // uncontended
		}
		return compute + locked + sched + embed + 2*m.barrier(threads), nil
	case strategy.AtomicCS:
		compute := 2 * pairs * m.CPair / p * drag(m.Beta, threads)
		atomic := 2 * 2 * pairs * m.AtomicCost * (1 + m.AtomicPingPong*(p-1))
		if threads == 1 {
			atomic = 2 * 2 * pairs * m.AtomicCost
		}
		return compute + atomic + sched + embed + 2*m.barrier(threads), nil
	case strategy.SAP:
		// Private accumulation parallelizes; merges serialize (one
		// critical section per thread over the whole array, §IV), and
		// the P private copies drag on the shared cache.
		cacheDrag := drag(m.Beta+m.SAPCacheDrag*(p-1), threads)
		compute := 2 * pairs * m.CPair / p * cacheDrag
		merge := 2 * atoms * m.MergeCost * p
		return compute + merge + sched + embed + 2*m.barrier(threads), nil
	case strategy.RC:
		// Double pair work, zero synchronization, no write sharing.
		compute := 2 * 2 * pairs * m.CPair / p * drag(m.RCBeta, threads)
		return compute + sched + embed + 2*m.barrier(threads), nil
	}
	return 0, fmt.Errorf("perfmodel: unsupported strategy %v", k)
}

// Speedup returns SerialTime / Time for the combination, or an error
// for blank cells.
func (m Machine) Speedup(k strategy.Kind, dim core.Dim, threads int, in Input) (float64, error) {
	ser, err := m.SerialTime(in)
	if err != nil {
		return 0, err
	}
	par, err := m.Time(k, dim, threads, in)
	if err != nil {
		return 0, err
	}
	return ser / par, nil
}
