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

// Engine evaluates EAM energies and forces for one system of "metals
// and alloys" (§II.C): NewEngine builds it for a single species,
// NewAlloyEngine for two. It owns the per-atom scratch arrays (rho
// and F'(rho)), so one Engine must not be used from multiple goroutines
// at once; internal parallelism comes from the reducer.
type Engine struct {
	// Box supplies the minimum-image convention. Every evaluation
	// re-reads it, so a caller may replace it between calls.
	Box box.Box

	pot     potential.EAM          // single-species potential (NewEngine)
	alloy   *potential.BinaryAlloy // two-species potential (NewAlloyEngine)
	species []int32                // species[i] is atom i's species (alloy only)
	cutoff  float64
	terms   terms
	// rad holds the radial terms of an analytic potential for the
	// kernels that call them statically; see radial.
	rad radial

	rho []float64 // electron densities ρ_i (phase 1 output)
	fp  []float64 // embedding derivatives F'(ρ_i) (phase 2 output)

	// partial, minR and maxR are phase 2's per-worker sums and ρ
	// ranges, one slot per reducer thread, kept so that no evaluation
	// allocates them.
	partial, minR, maxR []float64

	// soa holds the positions of the current evaluation repacked into
	// structure-of-arrays component streams. The pair kernels read X/Y/Z
	// instead of gathering whole Vec3 values, so a sweep over a
	// block-reordered subdomain streams three dense arrays — the §II.D
	// cache-blocking layout.
	// Repacking is O(N) per evaluation against O(pairs) kernel work.
	// Forces stay AoS ([]vec.Vec3): the strategies accumulate per
	// component in place and the integrator consumes Vec3 directly.
	soa core.SoA3
	// img is Box's minimum image in multiply form, refreshed by every
	// pack: the kernels pay no division per pair.
	img box.Image

	tel *telemetry.Recorder // per-phase timers; nil = disabled
}

// terms are the potential-specific parts of the three phases. The
// constructor picks one set from the potential's type once, so no
// per-pair code tests which kind of system it evaluates.
// The kernel builders read the SoA positions of the latest pack. They
// are method expressions, not method values: a method value's wrapper
// inlines the builder, and the clone of its closure is compiled with
// the per-pair calls out of line (about 10% slower on the 54 000-atom
// alloy force call).
type terms struct {
	density func(*Engine) strategy.Terms[float64]               // phase 1: ρ each atom of a pair gains
	embed   func(e *Engine, i int, rho float64) (f, df float64) // phase 2: F(ρ_i) and F'(ρ_i)
	force   func(*Engine) strategy.Terms[vec.Vec3]              // phase 3: the pair force of eq. (2)
	pair    func(*Engine) strategy.Terms[float64]               // V(r), half to each atom
}

// eamTerms evaluate any potential.EAM through its interface, one
// dynamic call per radial function and pair. Tabulated and PairOnly
// have no other path; a *potential.FeEAM takes feTerms.
var eamTerms = terms{
	density: (*Engine).densityTerms,
	embed:   (*Engine).embedTerm,
	force:   (*Engine).forceTerms,
	pair:    (*Engine).pairTerms,
}

// NewEngine validates and builds a single-species engine. The
// potential's type picks the kernels: a *potential.FeEAM gets feTerms,
// which call its radial terms statically, and any other potential the
// interface kernels of eamTerms.
func NewEngine(pot potential.EAM, bx box.Box) (*Engine, error) {
	if pot == nil {
		return nil, fmt.Errorf("force: nil potential")
	}
	if !(pot.Cutoff() > 0) {
		return nil, fmt.Errorf("force: potential cutoff %g must be positive", pot.Cutoff())
	}
	e := &Engine{Box: bx, pot: pot, cutoff: pot.Cutoff(), terms: eamTerms}
	if fe, ok := pot.(*potential.FeEAM); ok {
		e.terms = feTerms
		e.rad.pair[0][0], e.rad.dens[0], e.rad.smooth = fe.Morse(), fe.ExpDensity(), fe.Smoother()
	}
	return e, nil
}

// Result reports one force evaluation.
type Result struct {
	// EmbedEnergy is Σ_i F(ρ_i), collected during phase 2.
	EmbedEnergy float64
	// MinRho/MaxRho are the extreme host densities seen, a cheap
	// diagnostic for bad geometry (overlapping atoms blow ρ up).
	MinRho, MaxRho float64
}

// Cutoff returns the potential's interaction cutoff.
func (e *Engine) Cutoff() float64 { return e.cutoff }

// Rho returns the phase-1 densities of the latest evaluation (aliased;
// valid until the next call).
func (e *Engine) Rho() []float64 { return e.rho }

// FPrime returns the phase-2 embedding derivatives F'(ρ_i) of the
// latest evaluation (aliased; valid until the next call).
func (e *Engine) FPrime() []float64 { return e.fp }

// SetTelemetry attaches a recorder that times the three phases of every
// Compute (§III.A's decomposition); nil detaches.
func (e *Engine) SetTelemetry(rec *telemetry.Recorder) { e.tel = rec }

// Every kernel below fills one chunk of atom i's row in two loops:
// dists or disps writes the chunk's minimum-image distances (or
// displacements) into ci, and a second loop evaluates the radial
// functions over them. The pairs of the second loop are independent,
// so consecutive exps overlap instead of each waiting for the last.
// The scratch is resliced to len(js) so the compiler drops the
// per-pair bounds checks. Both loops handle a displacement one
// component at a time, with vec.Vec3's Norm and Scale arithmetic: Go
// keeps a [3]float64 in memory, and a Vec3 built by three scalar
// stores and then copied whole waits for store forwarding, which cost
// the distance loop more than half its time in a profile.

// dists writes the minimum-image distance of each pair (i, js[k]) into
// r[k]. It reads the SoA-packed positions and the image of the latest
// pack() — three dense component streams instead of an AoS Vec3 gather
// — with arithmetic bit-identical to Box.Distance on the original
// vectors for every pair closer than L/2. Atom i's coordinates are
// hoisted out of the loop, and the per-axis image inlines, so the loop
// makes no call; the kernels call dists once per chunk.
func (e *Engine) dists(i int32, js []int32, r []float64) {
	x, y, z, im := e.soa.X, e.soa.Y, e.soa.Z, &e.img
	r = r[:len(js)]
	xi, yi, zi := x[i], y[i], z[i]
	for k, j := range js {
		dx, dy, dz := im.MinAxis(0, xi-x[j]), im.MinAxis(1, yi-y[j]), im.MinAxis(2, zi-z[j])
		r[k] = math.Sqrt(dx*dx + dy*dy + dz*dz)
	}
}

// disps is dists for the displacements pᵢ − pⱼ themselves.
func (e *Engine) disps(i int32, js []int32, d []vec.Vec3) {
	x, y, z, im := e.soa.X, e.soa.Y, e.soa.Z, &e.img
	d = d[:len(js)]
	xi, yi, zi := x[i], y[i], z[i]
	for k, j := range js {
		dk := &d[k]
		dk[0], dk[1], dk[2] = im.MinAxis(0, xi-x[j]), im.MinAxis(1, yi-y[j]), im.MinAxis(2, zi-z[j])
	}
}

// densityTerms is the interface phase-1 kernel: φ(r) flows both ways
// (this is also §II.D.1's optimization — i's contribution to j is
// computed with j's to i).
func (e *Engine) densityTerms() strategy.Terms[float64] {
	return func(i int32, js []int32, ci, cj []float64) {
		ci, cj = ci[:len(js)], cj[:len(js)]
		e.dists(i, js, ci)
		for k, r := range ci {
			phi, _ := e.pot.Density(r)
			ci[k], cj[k] = phi, phi
		}
	}
}

// embedTerm is the single-species phase-2 term.
func (e *Engine) embedTerm(_ int, rho float64) (float64, float64) { return e.pot.Embed(rho) }

// forceTerms is the interface phase-3 kernel implementing the paper's
// eq. (2): the pair force magnitude is V'(r) + (F'(ρ_i)+F'(ρ_j))·φ'(r),
// directed along the minimum-image separation. It fills ci with the
// force on atom i; the strategy applies −ci to atom j. A pair outside
// the cutoff gets a zero force.
func (e *Engine) forceTerms() strategy.Terms[vec.Vec3] {
	fp, cut := e.fp, e.cutoff
	return func(i int32, js []int32, ci, _ []vec.Vec3) {
		ci = ci[:len(js)]
		e.disps(i, js, ci)
		fpi := fp[i]
		for k, j := range js {
			d := &ci[k]
			r := math.Sqrt(d[0]*d[0] + d[1]*d[1] + d[2]*d[2])
			if r <= 0 || r >= cut {
				*d = vec.Vec3{}
				continue
			}
			_, dv := e.pot.Energy(r)
			_, dphi := e.pot.Density(r)
			coeff := dv + (fpi+fp[j])*dphi
			f := -coeff / r
			d[0], d[1], d[2] = f*d[0], f*d[1], f*d[2]
		}
	}
}

// pairTerms is the single-species pair-energy kernel.
func (e *Engine) pairTerms() strategy.Terms[float64] {
	return func(i int32, js []int32, ci, cj []float64) {
		ci, cj = ci[:len(js)], cj[:len(js)]
		e.dists(i, js, ci)
		for k, r := range ci {
			v, _ := e.pot.Energy(r)
			ci[k], cj[k] = v/2, v/2
		}
	}
}

// pack checks pos against the species array, repacks it into the SoA
// scratch and refreshes the image from Box; every public entry point
// calls it before building kernels so the closures see current data.
func (e *Engine) pack(pos []vec.Vec3) error {
	if e.alloy != nil && len(e.species) != len(pos) {
		return fmt.Errorf("force: %d species for %d atoms", len(e.species), len(pos))
	}
	e.soa.Pack(pos)
	e.img = e.Box.Image()
	return nil
}

// densities runs phase 1, the irregular scalar reduction, over the
// packed positions into rho.
func (e *Engine) densities(red strategy.Reducer) {
	n := e.soa.Len()
	if cap(e.rho) < n {
		e.rho = make([]float64, n)
		e.fp = make([]float64, n)
	}
	e.rho, e.fp = e.rho[:n], e.fp[:n]
	for i := range e.rho {
		e.rho[i] = 0
	}
	red.SweepScalar(e.rho, e.terms.density(e))
}

// embedding runs phase 2 — F(ρ_i) and F'(ρ_i) have no cross-iteration
// dependence, a plain parallel-for (§II.C phase 2) — and reduces
// Σ F(ρ_i) and the ρ range over the workers.
func (e *Engine) embedding(red strategy.Reducer) Result {
	threads := red.Threads()
	if len(e.partial) != threads {
		e.partial = make([]float64, threads)
		e.minR = make([]float64, threads)
		e.maxR = make([]float64, threads)
	}
	partial, minR, maxR := e.partial, e.minR, e.maxR
	for t := range partial {
		partial[t] = 0
		minR[t] = math.Inf(1)
		maxR[t] = math.Inf(-1)
	}
	embed := e.terms.embed
	red.ParallelForAtoms(func(start, end, tid int) {
		sum := 0.0
		lo, hi := minR[tid], maxR[tid]
		for i := start; i < end; i++ {
			fe, dfe := embed(e, i, e.rho[i])
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
	for t := range partial {
		res.EmbedEnergy += partial[t]
		if minR[t] < res.MinRho {
			res.MinRho = minR[t]
		}
		if maxR[t] > res.MaxRho {
			res.MaxRho = maxR[t]
		}
	}
	if len(e.rho) == 0 {
		res.MinRho, res.MaxRho = 0, 0
	}
	return res
}

// Densities runs phase 1 at positions pos: it packs them (outside the
// density span, so the SoA pack stays its own layer) and sweeps the
// pair densities into Rho. len(pos) must match the species count of an
// alloy and the reducer's neighbor list, whose neighbors may index
// atoms past its own rows.
func (e *Engine) Densities(red strategy.Reducer, pos []vec.Vec3) error {
	if err := e.pack(pos); err != nil {
		return err
	}
	sp := e.tel.Span()
	e.densities(red)
	e.tel.EndPhase(telemetry.PhaseDensity, sp)
	return nil
}

// Embed runs phase 2 over the reducer's atoms: F'(ρ) into FPrime and
// Σ F(ρ_i) and the ρ range into the Result. Densities must have run.
func (e *Engine) Embed(red strategy.Reducer) Result {
	sp := e.tel.Span()
	res := e.embedding(red)
	e.tel.EndPhase(telemetry.PhaseEmbed, sp)
	return res
}

// Forces runs phase 3, the irregular vector reduction, and writes the
// forces into f (overwritten), one per position of the latest
// Densities. Embed must have run.
func (e *Engine) Forces(red strategy.Reducer, f []vec.Vec3) error {
	if len(f) != e.soa.Len() {
		return fmt.Errorf("force: force array length %d != %d atoms", len(f), e.soa.Len())
	}
	sp := e.tel.Span()
	vec.Fill(f, vec.Vec3{})
	red.SweepVector(f, e.terms.force(e))
	e.tel.EndPhase(telemetry.PhaseForce, sp)
	return nil
}

// Compute runs the three phases and writes forces into f (overwritten).
// len(f) must equal len(pos) (and, for an alloy, the species count) and
// match the reducer's neighbor list.
func (e *Engine) Compute(red strategy.Reducer, pos []vec.Vec3, f []vec.Vec3) (Result, error) {
	if err := e.Densities(red, pos); err != nil {
		return Result{}, err
	}
	res := e.Embed(red)
	if err := e.Forces(red, f); err != nil {
		return Result{}, err
	}
	return res, nil
}

// PairEnergy computes Σ_pairs V(r) with one extra scalar sweep (each
// atom receives half of each bond's energy).
func (e *Engine) PairEnergy(red strategy.Reducer, pos []vec.Vec3) (float64, error) {
	if err := e.pack(pos); err != nil {
		return 0, err
	}
	per := make([]float64, len(pos))
	red.SweepScalar(per, e.terms.pair(e))
	total := 0.0
	for _, v := range per {
		total += v
	}
	return total, nil
}

// PotentialEnergy returns the full EAM energy Σ F(ρ_i) + ½ΣΣ V(r) and
// its two components. It re-runs phases 1-2 internally, so it does not
// disturb a previous Compute's outputs except the scratch arrays.
func (e *Engine) PotentialEnergy(red strategy.Reducer, pos []vec.Vec3) (total, pair, embed float64, err error) {
	// PairEnergy validates and packs pos for the two phases below.
	if pair, err = e.PairEnergy(red, pos); err != nil {
		return 0, 0, 0, err
	}
	e.densities(red)
	embed = e.embedding(red).EmbedEnergy
	return pair + embed, pair, embed, nil
}
