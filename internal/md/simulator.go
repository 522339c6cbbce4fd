package md

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"

	"sdcmd/internal/core"
	"sdcmd/internal/force"
	"sdcmd/internal/neighbor"
	"sdcmd/internal/potential"
	"sdcmd/internal/reorder"
	"sdcmd/internal/strategy"
	"sdcmd/internal/telemetry"
	"sdcmd/internal/vec"
)

// Config selects the numerical and parallelization parameters of a
// Simulator.
type Config struct {
	// Pot is the interatomic potential.
	Pot potential.EAM
	// Strategy picks the reduction strategy for the force loops.
	Strategy strategy.Kind
	// Threads is the worker count for parallel strategies (>= 1).
	Threads int
	// Dim is the SDC dimensionality (ignored by other strategies).
	Dim core.Dim
	// Skin is the Verlet skin (>= 0); lists rebuild automatically when
	// any atom has moved more than Skin/2 since the last build.
	Skin float64
	// BlockReorder, when true, permutes the atoms into decomposition
	// block order at every neighbor-list rebuild, making each
	// subdomain's atoms contiguous in memory — the §II.D cache-blocking
	// reorder, after which the SDC sweeps walk each subdomain as one
	// dense index range. It renumbers atoms (trajectory output order
	// changes) so it is opt-in, requires the SDC strategy, and excludes
	// alloy systems (Species is not permuted).
	BlockReorder bool
	// Dt is the timestep in ps.
	Dt float64
	// Thermostat, when non-nil, is applied after every step.
	Thermostat Thermostat
	// Alloy, with Species, replaces Pot for multi-species systems:
	// the simulator then builds its engine with force.NewAlloyEngine.
	// Exactly one of Pot/Alloy must be set.
	Alloy   *potential.BinaryAlloy
	Species []int32
	// Telemetry, when non-nil, receives per-phase force timers,
	// per-color sweep times, per-worker utilization and the rebuild
	// counter. nil (the default) disables collection entirely — the hot
	// path then pays only nil checks. The recorder outlives any single
	// simulator, so guard rollbacks keep accumulating into it.
	Telemetry *telemetry.Recorder
}

// DefaultConfig returns serviceable defaults, which DefaultJob shares:
// the standard Fe potential, the serial strategy on one thread, 2D SDC,
// a 0.5 Å skin and a 1 fs timestep.
func DefaultConfig() Config {
	return Config{
		Pot:      potential.DefaultFe(),
		Strategy: strategy.Serial,
		Threads:  1,
		Dim:      core.Dim2,
		Skin:     0.5,
		Dt:       1e-3,
	}
}

// Validate rejects unusable numerical parameters before the first step:
// a NaN or infinite Dt/Skin would otherwise surface only mid-run as a
// blown-up trajectory, and Threads < 1 as a pool construction failure.
// System-dependent checks (species length) live in NewSimulator.
func (c *Config) Validate() error {
	if (c.Pot == nil) == (c.Alloy == nil) {
		return errors.New("md: exactly one of Pot and Alloy must be set")
	}
	if math.IsNaN(c.Dt) || math.IsInf(c.Dt, 0) {
		return fmt.Errorf("md: timestep %g must be finite", c.Dt)
	}
	if !(c.Dt > 0) {
		return fmt.Errorf("md: timestep %g must be positive", c.Dt)
	}
	if math.IsNaN(c.Skin) || math.IsInf(c.Skin, 0) {
		return fmt.Errorf("md: skin %g must be finite", c.Skin)
	}
	if c.Skin < 0 {
		return fmt.Errorf("md: skin %g must be non-negative", c.Skin)
	}
	if c.Threads < 1 {
		return fmt.Errorf("md: threads %d must be >= 1", c.Threads)
	}
	if c.BlockReorder {
		if c.Strategy != strategy.SDC {
			return fmt.Errorf("md: BlockReorder requires the sdc strategy, got %v", c.Strategy)
		}
		if c.Alloy != nil {
			return errors.New("md: BlockReorder does not support alloy systems (species arrays are not permuted)")
		}
	}
	if c.Thermostat != nil {
		if err := c.Thermostat.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// Thermostat adjusts velocities after each step to regulate
// temperature. Implementations are stateful and not concurrency-safe;
// one instance belongs to one simulator.
type Thermostat interface {
	// Apply rescales/perturbs velocities for one step of length dt.
	Apply(sys *System, dt float64)
	// Validate rejects unusable parameters.
	Validate() error
}

// Berendsen is the weak-coupling thermostat: each step velocities are
// scaled by λ = sqrt(1 + Δt/τ (T₀/T − 1)).
type Berendsen struct {
	// Target is T₀ in K.
	Target float64
	// Tau is the coupling time constant in ps (>= Dt for stability).
	Tau float64
}

// Validate implements Thermostat.
func (b *Berendsen) Validate() error {
	if !(b.Target >= 0) || !(b.Tau > 0) {
		return fmt.Errorf("md: bad Berendsen thermostat %+v", *b)
	}
	return nil
}

// Apply implements Thermostat.
func (b *Berendsen) Apply(sys *System, dt float64) {
	scale := b.Lambda(sys.Temperature(), dt)
	for i := range sys.Vel {
		sys.Vel[i] = sys.Vel[i].Scale(scale)
	}
}

// Lambda returns the velocity scale λ for one step of length dt at
// temperature cur; 1 when cur <= 0, where there is nothing to rescale.
func (b *Berendsen) Lambda(cur, dt float64) float64 {
	if cur <= 0 {
		return 1
	}
	lambda2 := 1 + dt/b.Tau*(b.Target/cur-1)
	if lambda2 < 0.25 {
		lambda2 = 0.25 // clamp: avoid catastrophic rescales on cold starts
	}
	return math.Sqrt(lambda2)
}

// Langevin is the stochastic thermostat: each step applies the exact
// Ornstein-Uhlenbeck update v ← c₁·v + c₂·σ·ξ with c₁ = e^{−γΔt},
// c₂ = √(1−c₁²), σ = √(k_B T/m). Unlike Berendsen it produces a true
// canonical ensemble and can heat a crystal from absolute rest.
type Langevin struct {
	// Target is the temperature in K.
	Target float64
	// Gamma is the friction in 1/ps.
	Gamma float64
	// Seed makes the noise reproducible.
	Seed int64

	rng *rand.Rand
}

// Validate implements Thermostat.
func (l *Langevin) Validate() error {
	if !(l.Target >= 0) || !(l.Gamma > 0) {
		return fmt.Errorf("md: bad Langevin thermostat %+v", *l)
	}
	return nil
}

// Apply implements Thermostat.
func (l *Langevin) Apply(sys *System, dt float64) {
	if l.rng == nil {
		l.rng = rand.New(rand.NewSource(l.Seed))
	}
	c1 := math.Exp(-l.Gamma * dt)
	c2 := math.Sqrt(1 - c1*c1)
	for i := range sys.Vel {
		sigma := math.Sqrt(KB * l.Target / sys.MassOf(i))
		sys.Vel[i] = sys.Vel[i].Scale(c1).Add(vec.New(
			c2*sigma*l.rng.NormFloat64(),
			c2*sigma*l.rng.NormFloat64(),
			c2*sigma*l.rng.NormFloat64(),
		))
	}
}

// Simulator advances a System with velocity-Verlet under a chosen
// strategy, owning the neighbor list, SDC decomposition and worker
// pool, and rebuilding them as atoms migrate.
type Simulator struct {
	Sys *System
	cfg Config

	eng        *force.Engine
	list       *neighbor.List
	dec        *core.Decomposition
	red        strategy.Reducer
	pool       *strategy.Pool
	posAtBuild []vec.Vec3

	// slots holds one result per worker of the integrator's passes
	// over the atoms (one slot without a pool). drift, scan and kick
	// are those passes, bound once as pool regions so that a step
	// allocates nothing.
	slots             []workerSlot
	drift, scan, kick func(tid int)

	step     int
	rebuilds int
	closed   bool
}

// NewSimulator validates cfg, builds the initial neighbor list,
// decomposition (for SDC) and reducer, and computes initial forces.
func NewSimulator(sys *System, cfg Config) (*Simulator, error) {
	if sys == nil {
		return nil, errors.New("md: nil system")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Alloy != nil && len(cfg.Species) != sys.N() {
		return nil, fmt.Errorf("md: %d species for %d atoms", len(cfg.Species), sys.N())
	}
	var eng *force.Engine
	var err error
	if cfg.Alloy != nil {
		eng, err = force.NewAlloyEngine(cfg.Alloy, sys.Box, cfg.Species)
	} else {
		eng, err = force.NewEngine(cfg.Pot, sys.Box)
	}
	if err != nil {
		return nil, err
	}
	sim := &Simulator{Sys: sys, cfg: cfg, eng: eng}
	eng.SetTelemetry(cfg.Telemetry)
	threads := 1
	if cfg.Strategy != strategy.Serial {
		pool, err := strategy.NewPool(cfg.Threads)
		if err != nil {
			return nil, err
		}
		pool.SetTelemetry(cfg.Telemetry)
		sim.pool = pool
		threads = cfg.Threads
	}
	sim.slots = make([]workerSlot, threads)
	sim.drift, sim.scan, sim.kick = sim.driftPass, sim.scanPass, sim.kickPass
	if err := sim.rebuild(); err != nil {
		sim.Close()
		return nil, err
	}
	if err := sim.computeForces(); err != nil {
		sim.Close()
		return nil, err
	}
	return sim, nil
}

// rebuild reconstructs the neighbor list, decomposition and reducer
// from the current positions. The decomposition (and the optional block
// reorder, which permutes positions) comes first so the neighbor list
// is built from the final atom numbering.
func (s *Simulator) rebuild() error {
	// The rebin and the list build borrow the simulator's pool. The
	// serial strategy has none and passes an untyped nil: a nil *Pool
	// stored in the interface is not == nil, so they would call it.
	var pool core.Parallelizer
	if s.pool != nil {
		pool = s.pool
	}
	reach := s.eng.Cutoff() + s.cfg.Skin
	if s.cfg.Strategy == strategy.SDC {
		if s.dec == nil || s.dec.Box != s.Sys.Box {
			dec, err := core.Decompose(s.Sys.Box, s.Sys.Pos, s.cfg.Dim, reach)
			if err != nil {
				return err
			}
			s.dec = dec
		} else {
			s.dec.RebinParallel(s.Sys.Pos, pool)
		}
		if s.cfg.BlockReorder {
			if err := s.blockReorder(); err != nil {
				return err
			}
		}
	}
	// The outgoing list is dead once its reducer is replaced, so the
	// build reuses its arrays.
	list, err := neighbor.Builder{Cutoff: s.eng.Cutoff(), Skin: s.cfg.Skin, Half: true}.
		Rebuild(s.list, s.Sys.Box, s.Sys.Pos, pool)
	if err != nil {
		return err
	}
	s.list = list
	s.red, err = strategy.New(strategy.Config{
		Kind: s.cfg.Strategy, List: s.list, Pool: s.pool, Decomp: s.dec,
		Telemetry: s.cfg.Telemetry,
	})
	if err != nil {
		return err
	}
	if s.posAtBuild == nil || len(s.posAtBuild) != s.Sys.N() {
		s.posAtBuild = make([]vec.Vec3, s.Sys.N())
	}
	copy(s.posAtBuild, s.Sys.Pos)
	s.rebuilds++
	s.cfg.Telemetry.IncRebuild()
	return nil
}

// blockReorder permutes the system into the decomposition's block
// order — reorder.SpatialOrder over the decomposition's own grid — and
// renumbers the grid to match, after which PartIndex is the identity:
// the SDC sweeps' Fig. 7/8 loop over Atoms(s) then walks each
// subdomain as one dense index range.
func (s *Simulator) blockReorder() error {
	if err := s.Sys.Permute(reorder.SpatialOrder(&s.dec.Grid)); err != nil {
		return err
	}
	s.dec.Renumber()
	return nil
}

// needsRebuild applies the Verlet-skin criterion for Minimize; a step
// takes the same maximum inside its drift pass.
func (s *Simulator) needsRebuild() bool {
	if s.cfg.Skin <= 0 {
		return true // no slack: every step needs a fresh list
	}
	half := s.cfg.Skin / 2
	return neighbor.MaxDisplacement2(s.Sys.Box, s.posAtBuild, s.Sys.Pos) > half*half
}

// computeForces runs the three-phase EAM evaluation; with telemetry on,
// the engine times each phase — what the paper's experiments measure
// ("the running times of the calculations of the electron densities and
// forces", §III.A).
func (s *Simulator) computeForces() error {
	res, err := s.eng.Compute(s.red, s.Sys.Pos, s.Sys.Force)
	if err != nil {
		return err
	}
	// Blow-up detection: a too-large timestep or overlapping atoms
	// produces non-finite forces; stop with a diagnosable error instead
	// of silently filling the trajectory with NaNs.
	if math.IsNaN(res.EmbedEnergy) || math.IsInf(res.EmbedEnergy, 0) {
		return fmt.Errorf("md: non-finite embedding energy at step %d (unstable integration?)", s.step)
	}
	return s.checkForces()
}

// checkForces scans the forces for a non-finite component in one
// pooled pass and names the lowest atom that has one.
func (s *Simulator) checkForces() error {
	s.run(s.scan)
	if i := s.firstBad(); i >= 0 {
		return fmt.Errorf("md: non-finite force on atom %d at step %d (dt too large or atoms overlapping)", i, s.step)
	}
	return nil
}

// workerSlot is one worker's result of an integrator pass. Worker tid
// writes slots[tid] only, and the pool's join orders that write before
// the step reads it.
type workerSlot struct {
	// bad is the lowest atom of the worker's chunk that failed the
	// pass's check, or -1.
	bad int
	// maxD2 is the drift pass's largest squared displacement since
	// the list was built.
	maxD2 float64
}

// run runs one integrator pass as a pool region. Without a pool it
// runs inline as worker 0 of 1, over every atom.
func (s *Simulator) run(region func(tid int)) {
	if s.pool == nil {
		region(0)
		return
	}
	s.pool.Run(region)
}

// chunk returns worker tid's atoms [start, end). The chunks are
// contiguous and in tid order, so the first slot that flags an atom
// holds the lowest flagged atom of all.
func (s *Simulator) chunk(tid int) (start, end int) {
	n, t := s.Sys.N(), len(s.slots)
	return tid * n / t, (tid + 1) * n / t
}

// firstBad returns the lowest atom the latest pass flagged, or -1 when
// it flagged none.
func (s *Simulator) firstBad() int {
	for _, w := range s.slots {
		if w.bad >= 0 {
			return w.bad
		}
	}
	return -1
}

// driftPass is a step's first pass, fused per atom of worker tid's
// chunk: the half-kick, the move check, the drift and wrap, and the
// squared displacement since the list was built, whose maximum decides
// the rebuild as neighbor.MaxDisplacement2 would (a maximum does not
// depend on the order it is taken in). The chunk stops at its first
// atom that fails the move check, kicked but not moved, so its move is
// its velocity times dt.
//
// The loop works on scalar components with the arithmetic of
// vec.Vec3's AddScaled, Scale, Norm and Add, of Box.Wrap and of
// box.Image.Min, in their order, so every bit is theirs: a Vec3 temporary
// would be stored and reloaded whole, which stalls on store forwarding.
// The box's corner, edges and periodic axes are read once, and only an
// atom that left the cell on an axis makes a call, Box.WrapAxis.
func (s *Simulator) driftPass(tid int) {
	start, end := s.chunk(tid)
	sys, dt := s.Sys, s.cfg.Dt
	bx := &sys.Box
	im, l := bx.Image(), bx.Lengths()
	lo, per := bx.Lo, bx.Periodic
	// An atom moving a substantial fraction of the cell in one step has
	// outrun the minimum-image convention: the integration has blown up
	// (timestep too large for the current temperature).
	maxStep := l.MinComponent() / 4
	vel, frc := sys.Vel[start:end], sys.Force[start:end]
	pos, old := sys.Pos[start:end], s.posAtBuild[start:end]
	w := workerSlot{bad: -1}
	for k := range vel {
		v, f, p, o := &vel[k], &frc[k], &pos[k], &old[k]
		h := 0.5 * dt / sys.MassOf(start+k)
		vx, vy, vz := v[0]+h*f[0], v[1]+h*f[1], v[2]+h*f[2]
		v[0], v[1], v[2] = vx, vy, vz
		mx, my, mz := dt*vx, dt*vy, dt*vz
		if !finite(mx) || !finite(my) || !finite(mz) || math.Sqrt(mx*mx+my*my+mz*mz) > maxStep {
			w.bad = start + k
			break
		}
		px, py, pz := p[0]+mx, p[1]+my, p[2]+mz
		if x := px - lo[0]; per[0] && !(x > 0 && x < l[0]) {
			px = bx.WrapAxis(0, px)
		}
		if y := py - lo[1]; per[1] && !(y > 0 && y < l[1]) {
			py = bx.WrapAxis(1, py)
		}
		if z := pz - lo[2]; per[2] && !(z > 0 && z < l[2]) {
			pz = bx.WrapAxis(2, pz)
		}
		p[0], p[1], p[2] = px, py, pz
		dx, dy, dz := im.MinAxis(0, px-o[0]), im.MinAxis(1, py-o[1]), im.MinAxis(2, pz-o[2])
		if d2 := dx*dx + dy*dy + dz*dz; d2 > w.maxD2 {
			w.maxD2 = d2
		}
	}
	s.slots[tid] = w
}

// finite reports whether x is neither NaN nor infinite, as
// vec.Vec3.IsFinite asks of each component.
func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// scanPass flags the first atom of worker tid's chunk with a
// non-finite force.
func (s *Simulator) scanPass(tid int) {
	start, end := s.chunk(tid)
	bad := -1
	for k, f := range s.Sys.Force[start:end] {
		if !f.IsFinite() {
			bad = start + k
			break
		}
	}
	s.slots[tid].bad = bad
}

// kickPass is a step's second half-kick over worker tid's chunk.
func (s *Simulator) kickPass(tid int) {
	start, end := s.chunk(tid)
	sys, dt := s.Sys, s.cfg.Dt
	vel, frc := sys.Vel[start:end], sys.Force[start:end]
	for k := range vel {
		vel[k] = vel[k].AddScaled(0.5*dt/sys.MassOf(start+k), frc[k])
	}
}

// ErrCanceled is the errors.Is sentinel for a run stopped by context
// cancellation. Every cancellation error returned by StepCtx,
// MinimizeCtx and the supervisors wraps both ErrCanceled and the
// context's own error (context.Canceled or context.DeadlineExceeded),
// so callers can distinguish an intentional stop from a physics fault
// with errors.Is(err, ErrCanceled). A canceled run always stops at a
// step boundary: positions, velocities and forces are those of the last
// completed step, so the state remains checkpointable.
var ErrCanceled = errors.New("run canceled")

// cancelError wraps the sentinel and the context cause with the step at
// which the run stopped.
func cancelError(step int, cause error) error {
	return fmt.Errorf("md: %w at step %d: %w", ErrCanceled, step, cause)
}

// Step advances n velocity-Verlet steps.
func (s *Simulator) Step(n int) error { return s.StepCtx(context.Background(), n) }

// StepCtx advances up to n velocity-Verlet steps, checking ctx at every
// step boundary: a canceled context stops the run before the next step
// starts and returns an error wrapping ErrCanceled, with the system
// left in the consistent state of the last completed step.
//
// Each step runs its O(N) work as pool passes over contiguous atom
// chunks: one fused pass kicks, checks, drifts and wraps every atom and
// takes the skin displacement; after the forces, one pass scans them
// for non-finite values and another applies the second half-kick. A
// failed check names the lowest bad atom, as a serial loop would. After
// an unstable-move error, though, atoms in other workers' chunks may
// already have moved: the state is unusable then, as it was before,
// and guard restores from its checkpoint ring. A non-finite force
// leaves the velocities unkicked.
func (s *Simulator) StepCtx(ctx context.Context, n int) error {
	if s.closed {
		return errors.New("md: simulator is closed")
	}
	dt, half := s.cfg.Dt, s.cfg.Skin/2
	for k := 0; k < n; k++ {
		if err := ctx.Err(); err != nil {
			return cancelError(s.step, err)
		}
		s.run(s.drift)
		if i := s.firstBad(); i >= 0 {
			return fmt.Errorf("md: atom %d moved %g Å in one step at step %d — unstable integration (reduce dt)",
				i, s.Sys.Vel[i].Scale(dt).Norm(), s.step)
		}
		// No skin means no slack: every step needs a fresh list.
		if s.cfg.Skin <= 0 || s.maxDisplacement2() > half*half {
			if err := s.rebuild(); err != nil {
				return fmt.Errorf("md: step %d: %w", s.step, err)
			}
		}
		if err := s.computeForces(); err != nil {
			return fmt.Errorf("md: step %d: %w", s.step, err)
		}
		s.run(s.kick)
		if th := s.cfg.Thermostat; th != nil {
			th.Apply(s.Sys, dt)
		}
		s.step++
	}
	return nil
}

// maxDisplacement2 returns the largest squared displacement since the
// list was built, over the slots of the latest drift pass.
func (s *Simulator) maxDisplacement2() float64 {
	worst := 0.0
	for _, w := range s.slots {
		worst = max(worst, w.maxD2)
	}
	return worst
}

// Rebuild forces a neighbor-list/decomposition rebuild and a force
// recomputation from the current positions. Checkpoint writers call it
// right after serializing state: a run resumed from the checkpoint
// rebuilds everything from scratch, so forcing the continuing run
// through the same rebuild makes the two trajectories bit-identical
// from the checkpoint on (the summation order of the force loops is a
// function of the neighbor list, which is a deterministic function of
// the positions it was built from).
func (s *Simulator) Rebuild() error {
	if s.closed {
		return errors.New("md: simulator is closed")
	}
	if err := s.rebuild(); err != nil {
		return err
	}
	return s.computeForces()
}

// Config returns the simulator's configuration.
func (s *Simulator) Config() Config { return s.cfg }

// PotentialEnergy evaluates the full EAM energy at the current
// positions (extra sweeps; not part of the timed force path).
func (s *Simulator) PotentialEnergy() float64 {
	total, _, _, err := s.eng.PotentialEnergy(s.red, s.Sys.Pos)
	if err != nil {
		// The engine was validated at construction; an error here means
		// the system was mutated inconsistently — surface loudly.
		//lint:ignore no-panic invariant violation after construction-time validation, not a recoverable condition
		panic(err)
	}
	return total
}

// TotalEnergy returns KE + PE.
func (s *Simulator) TotalEnergy() float64 {
	return s.Sys.KineticEnergy() + s.PotentialEnergy()
}

// StepCount returns the number of completed steps.
func (s *Simulator) StepCount() int { return s.step }

// Rebuilds returns how many times the neighbor list was (re)built.
func (s *Simulator) Rebuilds() int { return s.rebuilds }

// Telemetry returns the recorder the simulator was configured with (nil
// when telemetry is disabled).
func (s *Simulator) Telemetry() *telemetry.Recorder { return s.cfg.Telemetry }

// List exposes the current neighbor list (read-only use; aliased, and
// valid until the next rebuild, which reuses its arrays).
func (s *Simulator) List() *neighbor.List { return s.list }

// Decomposition exposes the spatial decomposition of the SDC strategy
// (nil for the others).
func (s *Simulator) Decomposition() *core.Decomposition { return s.dec }

// Reducer exposes the active reducer.
func (s *Simulator) Reducer() strategy.Reducer { return s.red }

// ApplyStrain deforms the system homogeneously and rebuilds the
// spatial structures (box geometry changed, so the old decomposition is
// discarded).
func (s *Simulator) ApplyStrain(eps vec.Vec3) error {
	s.Sys.ApplyStrain(eps)
	s.eng.Box = s.Sys.Box
	s.dec = nil
	if err := s.rebuild(); err != nil {
		return err
	}
	return s.computeForces()
}

// Close releases the worker pool. The simulator must not be used
// afterwards.
func (s *Simulator) Close() {
	s.closed = true
	if s.pool != nil {
		s.pool.Close()
		s.pool = nil
	}
}
