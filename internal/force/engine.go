// Package force implements the three-phase EAM force calculation the
// paper parallelizes (§II.C): (1) evaluate electron densities — the
// irregular scalar reduction of Fig. 1/7; (2) evaluate embedding
// energies and their derivatives — the dependence-free loop of phase 2;
// (3) compute forces — the irregular vector reduction of Fig. 2/8. The
// engine is strategy-agnostic: any strategy.Reducer supplies the
// scheduling and write-safety policy.
package force

import (
	"fmt"
	"math"

	"sdcmd/internal/box"
	"sdcmd/internal/core"
	"sdcmd/internal/potential"
	"sdcmd/internal/strategy"
	"sdcmd/internal/telemetry"
	"sdcmd/internal/vec"
)

// Engine evaluates EAM energies and forces for one system. It owns the
// per-atom scratch arrays (rho and F'(rho)), so one Engine must not be
// used from multiple goroutines at once; internal parallelism comes
// from the reducer.
type Engine struct {
	// Pot is the potential (a true EAM or a PairOnly adapter).
	Pot potential.EAM
	// Box supplies the minimum-image convention.
	Box box.Box

	rho []float64 // electron densities ρ_i (phase 1 output)
	fp  []float64 // embedding derivatives F'(ρ_i) (phase 2 output)

	// soa holds the positions of the current evaluation repacked into
	// structure-of-arrays component streams. The pair kernels read X/Y/Z
	// instead of gathering whole Vec3 values, so a cell-blocked sweep
	// (core.Decomposition.Contiguous) streams three dense arrays — the
	// §II.D cache-blocking layout.
	// Repacking is O(N) per evaluation against O(pairs) kernel work.
	// Forces stay AoS ([]vec.Vec3): the strategies accumulate per
	// component in place and the integrator consumes Vec3 directly.
	soa core.SoA3

	tel *telemetry.Recorder // per-phase timers; nil = disabled
}

// NewEngine validates and builds an engine.
func NewEngine(pot potential.EAM, bx box.Box) (*Engine, error) {
	if pot == nil {
		return nil, fmt.Errorf("force: nil potential")
	}
	if !(pot.Cutoff() > 0) {
		return nil, fmt.Errorf("force: potential cutoff %g must be positive", pot.Cutoff())
	}
	return &Engine{Pot: pot, Box: bx}, nil
}

// Result reports one force evaluation.
type Result struct {
	// EmbedEnergy is Σ_i F(ρ_i), collected during phase 2.
	EmbedEnergy float64
	// MinRho/MaxRho are the extreme host densities seen, a cheap
	// diagnostic for bad geometry (overlapping atoms blow ρ up).
	MinRho, MaxRho float64
}

// Rho returns the phase-1 densities of the latest evaluation (aliased;
// valid until the next call).
func (e *Engine) Rho() []float64 { return e.rho }

// SetTelemetry attaches a recorder that times the three phases of every
// Compute (§III.A's decomposition); nil detaches.
func (e *Engine) SetTelemetry(rec *telemetry.Recorder) { e.tel = rec }

func (e *Engine) resize(n int) {
	if cap(e.rho) < n {
		e.rho = make([]float64, n)
		e.fp = make([]float64, n)
		return
	}
	e.rho = e.rho[:n]
	e.fp = e.fp[:n]
}

// densityVisit is the phase-1 kernel: φ(r) flows both ways for a
// single-species system (this is also §II.D.1's optimization — i's
// contribution to j is computed in the same visit). It reads the
// SoA-packed positions of the latest pack() — three dense component
// streams instead of an AoS Vec3 gather — with arithmetic bit-identical
// to Box.Distance on the original vectors.
func (e *Engine) densityVisit() strategy.ScalarVisit {
	x, y, z := e.soa.X, e.soa.Y, e.soa.Z
	return func(i, j int32) (float64, float64) {
		r := e.Box.MinImageComp(x[i]-x[j], y[i]-y[j], z[i]-z[j]).Norm()
		phi, _ := e.Pot.Density(r)
		return phi, phi
	}
}

// forceVisit is the phase-3 kernel implementing the paper's eq. (2):
// the pair force magnitude is V'(r) + (F'(ρ_i)+F'(ρ_j))·φ'(r), directed
// along the minimum-image separation. It is antisymmetric, as the
// strategy contract requires. Like densityVisit it reads the SoA
// component streams.
func (e *Engine) forceVisit() strategy.VectorVisit {
	fp := e.fp
	x, y, z := e.soa.X, e.soa.Y, e.soa.Z
	return func(i, j int32) vec.Vec3 {
		d := e.Box.MinImageComp(x[i]-x[j], y[i]-y[j], z[i]-z[j])
		r := d.Norm()
		if r <= 0 || r >= e.Pot.Cutoff() {
			return vec.Vec3{}
		}
		_, dv := e.Pot.Energy(r)
		_, dphi := e.Pot.Density(r)
		coeff := dv + (fp[i]+fp[j])*dphi
		return d.Scale(-coeff / r)
	}
}

// pack repacks pos into the SoA scratch; every public entry point calls
// it before building kernels so the closures alias current data.
func (e *Engine) pack(pos []vec.Vec3) { e.soa.Pack(pos) }

// Compute runs the three phases and writes forces into f (overwritten).
// len(f) must equal len(pos) and match the reducer's neighbor list.
func (e *Engine) Compute(red strategy.Reducer, pos []vec.Vec3, f []vec.Vec3) (Result, error) {
	n := len(pos)
	if len(f) != n {
		return Result{}, fmt.Errorf("force: force array length %d != %d atoms", len(f), n)
	}
	e.resize(n)
	e.pack(pos)

	// Phase 1: electron densities (irregular scalar reduction).
	sp := e.tel.Span()
	for i := range e.rho {
		e.rho[i] = 0
	}
	red.SweepScalar(e.rho, e.densityVisit())
	e.tel.EndPhase(telemetry.PhaseDensity, sp)

	// Phase 2: embedding energies and F'(ρ) — no cross-iteration
	// dependence, a plain parallel-for (§II.C phase 2).
	sp = e.tel.Span()
	threads := red.Threads()
	partial := make([]float64, threads)
	minR := make([]float64, threads)
	maxR := make([]float64, threads)
	for t := range minR {
		minR[t] = math.Inf(1)
		maxR[t] = math.Inf(-1)
	}
	red.ParallelForAtoms(func(start, end, tid int) {
		sum := 0.0
		lo, hi := minR[tid], maxR[tid]
		for i := start; i < end; i++ {
			fe, dfe := e.Pot.Embed(e.rho[i])
			e.fp[i] = dfe
			sum += fe
			if e.rho[i] < lo {
				lo = e.rho[i]
			}
			if e.rho[i] > hi {
				hi = e.rho[i]
			}
		}
		partial[tid] += sum
		minR[tid], maxR[tid] = lo, hi
	})
	res := Result{MinRho: math.Inf(1), MaxRho: math.Inf(-1)}
	for t := 0; t < threads; t++ {
		res.EmbedEnergy += partial[t]
		if minR[t] < res.MinRho {
			res.MinRho = minR[t]
		}
		if maxR[t] > res.MaxRho {
			res.MaxRho = maxR[t]
		}
	}
	if n == 0 {
		res.MinRho, res.MaxRho = 0, 0
	}
	e.tel.EndPhase(telemetry.PhaseEmbed, sp)

	// Phase 3: forces (irregular vector reduction).
	sp = e.tel.Span()
	vec.Fill(f, vec.Vec3{})
	red.SweepVector(f, e.forceVisit())
	e.tel.EndPhase(telemetry.PhaseForce, sp)
	return res, nil
}

// PairEnergy computes Σ_pairs V(r) with one extra scalar sweep (each
// atom receives half of each bond's energy).
func (e *Engine) PairEnergy(red strategy.Reducer, pos []vec.Vec3) float64 {
	e.pack(pos)
	per := make([]float64, len(pos))
	x, y, z := e.soa.X, e.soa.Y, e.soa.Z
	red.SweepScalar(per, func(i, j int32) (float64, float64) {
		r := e.Box.MinImageComp(x[i]-x[j], y[i]-y[j], z[i]-z[j]).Norm()
		v, _ := e.Pot.Energy(r)
		return v / 2, v / 2
	})
	total := 0.0
	for _, v := range per {
		total += v
	}
	return total
}

// PotentialEnergy returns the full EAM energy Σ F(ρ_i) + ½ΣΣ V(r) and
// its two components. It re-runs phases 1-2 internally, so it does not
// disturb a previous Compute's outputs except the scratch arrays.
func (e *Engine) PotentialEnergy(red strategy.Reducer, pos []vec.Vec3) (total, pair, embed float64) {
	n := len(pos)
	e.resize(n)
	e.pack(pos)
	for i := range e.rho {
		e.rho[i] = 0
	}
	red.SweepScalar(e.rho, e.densityVisit())
	threads := red.Threads()
	partial := make([]float64, threads)
	red.ParallelForAtoms(func(start, end, tid int) {
		sum := 0.0
		for i := start; i < end; i++ {
			fe, dfe := e.Pot.Embed(e.rho[i])
			e.fp[i] = dfe
			sum += fe
		}
		partial[tid] += sum
	})
	for _, p := range partial {
		embed += p
	}
	pair = e.PairEnergy(red, pos)
	return pair + embed, pair, embed
}

// Virial computes W = Σ_pairs r_ij · f_ij (pair virial including the
// embedding coupling), used for the pressure diagnostic
// P = (N k_B T + W/3) / V. Compute must have run first so F'(ρ) is
// current; Virial returns an error otherwise.
func (e *Engine) Virial(red strategy.Reducer, pos []vec.Vec3) (float64, error) {
	if len(e.fp) != len(pos) {
		return 0, fmt.Errorf("force: Virial requires a preceding Compute on the same system")
	}
	e.pack(pos)
	per := make([]float64, len(pos))
	fv := e.forceVisit()
	x, y, z := e.soa.X, e.soa.Y, e.soa.Z
	red.SweepScalar(per, func(i, j int32) (float64, float64) {
		d := e.Box.MinImageComp(x[i]-x[j], y[i]-y[j], z[i]-z[j])
		w := d.Dot(fv(i, j))
		return w / 2, w / 2
	})
	total := 0.0
	for _, w := range per {
		total += w
	}
	return total, nil
}

// StressTensor computes the virial stress tensor contribution
// W_ab = Σ_pairs d_a · f_b (eV units; divide by volume for stress,
// add the kinetic term m·Σ v_a v_b for the full Cauchy stress). Compute
// must have run first so F'(ρ) is current. Six scalar sweeps — a
// diagnostic, not a hot path.
func (e *Engine) StressTensor(red strategy.Reducer, pos []vec.Vec3) ([3][3]float64, error) {
	var w [3][3]float64
	if len(e.fp) != len(pos) {
		return w, fmt.Errorf("force: StressTensor requires a preceding Compute on the same system")
	}
	e.pack(pos)
	fv := e.forceVisit()
	x, y, z := e.soa.X, e.soa.Y, e.soa.Z
	per := make([]float64, len(pos))
	for a := 0; a < 3; a++ {
		for b := a; b < 3; b++ {
			for k := range per {
				per[k] = 0
			}
			red.SweepScalar(per, func(i, j int32) (float64, float64) {
				d := e.Box.MinImageComp(x[i]-x[j], y[i]-y[j], z[i]-z[j])
				v := d[a] * fv(i, j)[b]
				return v / 2, v / 2
			})
			sum := 0.0
			for _, v := range per {
				sum += v
			}
			w[a][b] = sum
			w[b][a] = sum
		}
	}
	return w, nil
}
