package main

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"time"

	"sdcmd/internal/core"
	"sdcmd/internal/force"
	"sdcmd/internal/lattice"
	"sdcmd/internal/md"
	"sdcmd/internal/neighbor"
	"sdcmd/internal/perfmodel"
	"sdcmd/internal/potential"
	"sdcmd/internal/reorder"
	"sdcmd/internal/strategy"
	"sdcmd/internal/telemetry"
	"sdcmd/internal/vec"
)

const (
	// driftBound is the NVE gate: |E_end − E_start| / N in eV/atom.
	driftBound = 1e-4
	// forceTol is the strategy-vs-serial gate, relative to max|F|.
	forceTol = 1e-9
	// crFraction and crMass define the alloy-54k species draw.
	crFraction = 0.1
	crMass     = 51.996 * md.AMU
	// warmupSteps run before the force gate and any timing.
	warmupSteps = 5
	// sdcDim is the SDC dimensionality of every workload: 2D, the
	// paper's best.
	sdcDim = core.Dim2
	// setupRepeats is how many times an untraced run sets up; setup_s
	// is the median.
	setupRepeats = 5
	// blockSteps is the length of each alternating untraced/traced block
	// of a traced run.
	blockSteps = 10
	// serialSteps and serialBudget bound the serial baseline.
	serialSteps  = 30
	serialBudget = 4 * time.Second
	// rebuildCopies is how many real rebuild points the traced run
	// copies to time the rebuild components on.
	rebuildCopies = 3
	// layerReps is the repeat count of each O(N) layer call timed on a
	// copy of the state.
	layerReps = 15
	// otherProbeSteps is the length of the zero-force probe run.
	otherProbeSteps = 12
)

// mdCase is one MD workload's physics and parallel configuration.
type mdCase struct {
	cells       int
	temperature float64
	skin        float64
	alloy       bool
	reorder     bool
	threads     int
	// steps > 0 times exactly that many steps; 0 runs for --seconds.
	steps int
}

// mdCaseFor returns the configuration of an MD workload.
func mdCaseFor(name string, sc scale) mdCase {
	c := mdCase{cells: 30, temperature: 300, skin: 0.5, reorder: true,
		threads: runtime.NumCPU(), steps: sc.steps}
	switch name {
	case "hot-54k":
		c.temperature, c.skin = 1500, 0.15
	case "alloy-54k":
		c.alloy, c.reorder = true, false
	}
	if sc.cells > 0 {
		c.cells = sc.cells
	}
	return c
}

// system builds the initial state from seed: a perfect bcc crystal,
// the alloy species draw, and Maxwell-Boltzmann velocities.
func (c mdCase) system(seed int64) (*md.System, []int32, error) {
	lat, err := lattice.Build(lattice.BCC, c.cells, c.cells, c.cells, lattice.FeLatticeConstant)
	if err != nil {
		return nil, nil, err
	}
	sys := md.FromLattice(lat)
	var species []int32
	if c.alloy {
		rng := rand.New(rand.NewSource(seed))
		species = make([]int32, sys.N())
		masses := make([]float64, sys.N())
		for i := range species {
			masses[i] = md.FeMass
			if rng.Float64() < crFraction {
				species[i], masses[i] = 1, crMass
			}
		}
		if err := sys.SetMasses(masses); err != nil {
			return nil, nil, err
		}
	}
	if err := sys.InitVelocities(c.temperature, seed); err != nil {
		return nil, nil, err
	}
	return sys, species, nil
}

// config is the simulator configuration: NVE, dt 1 fs, SDC.
func (c mdCase) config(species []int32, rec *telemetry.Recorder) md.Config {
	cfg := md.DefaultConfig()
	cfg.Strategy = strategy.SDC
	cfg.Threads = c.threads
	cfg.Dim = sdcDim
	cfg.Skin = c.skin
	cfg.BlockReorder = c.reorder
	cfg.Telemetry = rec
	if c.alloy {
		cfg.Pot = nil
		cfg.Alloy = potential.DefaultFeCr()
		cfg.Species = species
	}
	return cfg
}

func (c mdCase) cutoff(cfg md.Config) float64 {
	if cfg.Alloy != nil {
		return cfg.Alloy.Cutoff()
	}
	return cfg.Pot.Cutoff()
}

// mdRun is a set-up simulator with the inputs it was built from.
type mdRun struct {
	c       mdCase
	sim     *md.Simulator
	species []int32
}

// setupMD builds the system and simulator repeats times, keeping the
// last; each set-up is timed from lattice build to a simulator with
// initial forces.
func setupMD(rep *report, c mdCase, seed int64, repeats int, tr *tracer) (*mdRun, error) {
	var run *mdRun
	times := make([]float64, 0, repeats)
	for i := 0; i < repeats; i++ {
		if run != nil {
			run.sim.Close()
			run = nil
			runtime.GC() // a discarded simulator must not inflate max_rss_mb
		}
		start := time.Now()
		sys, species, err := c.system(seed)
		if err != nil {
			return nil, err
		}
		sim, err := md.NewSimulator(sys, c.config(species, nil))
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		end := time.Now()
		tr.record("md.setup", start, end, -1, 0, trackSetup)
		times = append(times, end.Sub(start).Seconds())
		run = &mdRun{c: c, sim: sim, species: species}
	}
	rep.metrics["setup_s"] = median(times)
	return run, nil
}

// warmAndGate runs the warm-up steps, then checks the strategy's forces
// against a serial evaluation on the same neighbor list. It returns the
// total energy the drift gate starts from.
func (r *mdRun) warmAndGate(rep *report, tr *tracer) (float64, error) {
	rep.attempted += warmupSteps
	if err := r.sim.Step(warmupSteps); err != nil {
		rep.failed++
		return 0, fmt.Errorf("warm-up: %w", err)
	}
	start := time.Now()
	err := r.forceGate(rep)
	tr.record("gate.forces_vs_serial", start, time.Now(), -1, 0, trackSetup)
	if err != nil {
		return 0, err
	}
	return r.sim.TotalEnergy(), nil
}

func (r *mdRun) forceGate(rep *report) error {
	sys := r.sim.Sys
	cfg := r.sim.Config()
	red, err := strategy.New(strategy.Config{Kind: strategy.Serial, List: r.sim.List()})
	if err != nil {
		return err
	}
	ref := make([]vec.Vec3, sys.N())
	if cfg.Alloy != nil {
		eng, err := force.NewAlloyEngine(cfg.Alloy, sys.Box, cfg.Species)
		if err != nil {
			return err
		}
		if _, err := eng.Compute(red, sys.Pos, ref); err != nil {
			return err
		}
	} else {
		eng, err := force.NewEngine(cfg.Pot, sys.Box)
		if err != nil {
			return err
		}
		if _, err := eng.Compute(red, sys.Pos, ref); err != nil {
			return err
		}
	}
	maxF := vec.MaxNorm(ref)
	diff := 0.0
	for i, f := range sys.Force {
		diff = math.Max(diff, f.Sub(ref[i]).Norm())
	}
	rep.check("forces-match-serial", diff <= forceTol*maxF,
		"max|F-F_serial| %.3g eV/A, limit %.3g", diff, forceTol*maxF)
	net := vec.Sum(sys.Force).Norm()
	netTol := 1e-12 * float64(sys.N()) * maxF
	rep.check("net-force-zero", net <= netTol, "|sum F| %.3g eV/A, limit %.3g", net, netTol)
	return nil
}

// driftGate checks NVE energy conservation since e0.
func (r *mdRun) driftGate(rep *report, name string, e0 float64) {
	e1 := r.sim.TotalEnergy()
	drift := math.Abs(e1-e0) / float64(r.sim.Sys.N())
	ok := drift <= driftBound && !math.IsNaN(e1) && !math.IsInf(e1, 0)
	rep.check(name, ok, "|dE|/N %.3g eV/atom over %d steps, limit %g", drift, r.sim.StepCount(), driftBound)
}

// done reports whether a timed loop that has run n steps since start
// should stop.
func (c mdCase) done(n int, start time.Time, seconds float64) bool {
	if c.steps > 0 {
		return n >= c.steps
	}
	return time.Since(start).Seconds() >= seconds
}

// runMDWorkload is bulk-54k, hot-54k and alloy-54k.
func runMDWorkload(rc runConfig, c mdCase, tr *tracer) (*report, error) {
	rep := newReport()
	repeats := setupRepeats
	if rc.trace {
		repeats = 1
	}
	r, err := setupMD(rep, c, rc.seed, repeats, tr)
	if err != nil {
		return nil, err
	}
	defer r.sim.Close()
	e0, err := r.warmAndGate(rep, tr)
	if err != nil {
		return nil, err
	}
	if rc.trace {
		if err := r.layers(rep, rc, e0, tr); err != nil {
			return nil, err
		}
		// The service layers are measured by a short job probe so that
		// every traced run reports the whole per-layer set.
		return rep, serveProbe(rep, rc, tr)
	}
	var steps []float64
	start := time.Now()
	for !c.done(len(steps), start, rc.seconds) {
		t0 := time.Now()
		err := r.sim.Step(1)
		steps = append(steps, ms(time.Since(t0)))
		rep.attempted++
		if err != nil {
			rep.failed++
			return nil, fmt.Errorf("step %d: %w", r.sim.StepCount(), err)
		}
	}
	end := time.Now()
	rep.metrics["ms_per_op"] = mean(steps)
	rep.metrics["op_ms_p50"] = percentile(steps, 0.50)
	r.driftGate(rep, "nve-drift", e0)
	logf(rc.log, "md: %d atoms, %d timed steps in %.2fs, %d rebuilds\n",
		r.sim.Sys.N(), len(steps), end.Sub(start).Seconds(), r.sim.Rebuilds())
	return rep, nil
}

// tracedStep is one step of the traced simulator.
type tracedStep struct {
	span                  int
	start                 time.Time
	wall                  time.Duration
	density, embed, force time.Duration
	rebuild               bool
}

// tracedWindow is what the alternating loop of a traced run collects.
type tracedWindow struct {
	steps []tracedStep
	// plainAll and plainSteady are the untraced step times, all and
	// non-rebuild only.
	plainAll, plainSteady []float64
	// copies are states taken at real rebuild points.
	copies []*md.System
	// base and end bracket the recorder over the window.
	base, end telemetry.Metrics
}

// layers is the traced run of an MD workload. It alternates blocks of
// steps between the untraced simulator and a second simulator on a copy
// of the same state with the telemetry recorder attached, then times
// each layer's public calls on copies of the state and lays the layer
// times out as child spans of every traced step. Whatever the layers do
// not account for stays as the step's own self time: md.unexplained_pct.
func (r *mdRun) layers(rep *report, rc runConfig, e0 float64, tr *tracer) error {
	c := r.c
	// Rebuild the untraced simulator's list from the same state the
	// traced one starts from, so both sweep the same pairs.
	if err := r.sim.Rebuild(); err != nil {
		return err
	}
	// Alloys are never reordered, so the species keep their atom order.
	rec := telemetry.NewRecorder()
	tsim, err := md.NewSimulator(r.sim.Sys.Clone(), c.config(r.species, rec))
	if err != nil {
		return fmt.Errorf("traced simulator: %w", err)
	}
	defer tsim.Close()
	traced := &mdRun{c: c, sim: tsim, species: r.species}
	te0 := tsim.TotalEnergy()

	w, err := r.alternate(rep, rc.seconds, traced, rec, tr)
	if err != nil {
		return err
	}
	r.driftGate(rep, "nve-drift", e0)
	traced.driftGate(rep, "nve-drift-traced", te0)
	lt, err := traced.layerTimes(w.copies, tr)
	if err != nil {
		return err
	}
	traced.ledger(rep, rc.log, w, lt, tr)

	// Context: the telemetry's own cost, a serial baseline on the same
	// state, and the performance model's prediction for this input.
	var steady []float64
	for _, s := range w.steps {
		if !s.rebuild {
			steady = append(steady, ms(s.wall))
		}
	}
	rep.metrics["telemetry.overhead_pct"] = 100 * (median(steady)/median(w.plainSteady) - 1)
	serialMs, err := serialBaseline(rep, c, tsim.Sys, r.species, tr)
	if err != nil {
		return err
	}
	rep.metrics["baseline.serial_ms_per_step"] = serialMs
	rep.metrics["baseline.speedup"] = serialMs / mean(w.plainAll)
	edge := tsim.Sys.Box.Lengths()
	in := perfmodel.Input{Atoms: tsim.Sys.N(), HalfPairs: tsim.List().Pairs(), Edge: edge[0]}
	pred, err := perfmodel.XeonE7320().Speedup(strategy.SDC, sdcDim, c.threads, in)
	if err != nil {
		return fmt.Errorf("perfmodel: %w", err)
	}
	rep.metrics["perfmodel.speedup_predicted"] = pred
	return nil
}

// alternate runs blocks of blockSteps steps, untraced then traced, for
// seconds (or the case's fixed step count of traced steps).
func (r *mdRun) alternate(rep *report, seconds float64, traced *mdRun, rec *telemetry.Recorder, tr *tracer) (tracedWindow, error) {
	var w tracedWindow
	tsim := traced.sim
	w.base = rec.Snapshot()
	prev := w.base
	start := time.Now()
	for !r.c.done(len(w.steps), start, seconds) {
		for k := 0; k < blockSteps; k++ {
			r0 := r.sim.Rebuilds()
			t0 := time.Now()
			err := r.sim.Step(1)
			t1 := time.Now()
			tr.record("md.step.untraced", t0, t1, -1, int64(r.sim.StepCount()), trackPlainStep)
			rep.attempted++
			if err != nil {
				rep.failed++
				return w, fmt.Errorf("untraced step: %w", err)
			}
			w.plainAll = append(w.plainAll, ms(t1.Sub(t0)))
			if r.sim.Rebuilds() == r0 {
				w.plainSteady = append(w.plainSteady, ms(t1.Sub(t0)))
			}
		}
		for k := 0; k < blockSteps; k++ {
			r0 := tsim.Rebuilds()
			t0 := time.Now()
			err := tsim.Step(1)
			t1 := time.Now()
			rep.attempted++
			if err != nil {
				rep.failed++
				return w, fmt.Errorf("traced step: %w", err)
			}
			snap := rec.Snapshot()
			st := tracedStep{
				span:    tr.record("md.step", t0, t1, -1, int64(tsim.StepCount()), trackSteps),
				start:   t0,
				wall:    t1.Sub(t0),
				density: phaseDelta(snap.Density, prev.Density),
				embed:   phaseDelta(snap.Embed, prev.Embed),
				force:   phaseDelta(snap.Force, prev.Force),
				rebuild: tsim.Rebuilds() > r0,
			}
			if st.rebuild && len(w.copies) < rebuildCopies {
				w.copies = append(w.copies, tsim.Sys.Clone())
			}
			w.steps = append(w.steps, st)
			prev = snap
		}
	}
	w.end = rec.Snapshot()
	return w, nil
}

// layerTimes are the layer costs timed outside the traced steps, in ms.
type layerTimes struct {
	rebuild           rebuildTimes
	pack, skin, other float64
}

// layerTimes times the rebuild components on the copies (the final
// state when the window saw no rebuild), the pack and the skin check on
// the final state, and the serial loops with the zero-force probe.
func (r *mdRun) layerTimes(copies []*md.System, tr *tracer) (layerTimes, error) {
	var lt layerTimes
	if len(copies) == 0 {
		copies = append(copies, r.sim.Sys.Clone())
	}
	var err error
	if lt.rebuild, err = r.rebuildComponents(copies, tr); err != nil {
		return lt, err
	}
	pos := r.sim.Sys.Pos
	var soa core.SoA3
	soa.Pack(pos)
	lt.pack = medianTime(layerReps, func() {
		tr.timed("force.pack", -1, 0, trackLayers, func() { soa.Pack(pos) })
	})
	old := append([]vec.Vec3(nil), pos...)
	lt.skin = medianTime(layerReps, func() {
		tr.timed("neighbor.skin_check", -1, 0, trackLayers, func() { neighbor.MaxDisplacement2(r.sim.Sys.Box, old, pos) })
	})
	lt.other, err = otherProbe(r.sim.Sys, lt.pack, lt.skin, tr)
	return lt, err
}

// ledger lays the layers out as child spans of each traced step, in
// execution order, reports the per-layer metrics, and prints the ledger
// with the remainder no layer accounts for.
func (r *mdRun) ledger(rep *report, log io.Writer, w tracedWindow, lt layerTimes, tr *tracer) {
	n := float64(len(w.steps))
	var walls, steady, rebuildExtra []float64
	var dens, emb, frc time.Duration
	rebuilds := 0
	for _, s := range w.steps {
		walls = append(walls, ms(s.wall))
		dens += s.density
		emb += s.embed
		frc += s.force
		if s.rebuild {
			rebuilds++
		} else {
			steady = append(steady, ms(s.wall))
		}
	}
	steadyMed := median(steady)
	for _, s := range w.steps {
		if s.rebuild {
			rebuildExtra = append(rebuildExtra, ms(s.wall)-steadyMed)
		}
	}
	stepMs := mean(walls)
	densMs, embMs, frcMs := ms(dens)/n, ms(emb)/n, ms(frc)/n
	rebuildMs := lt.rebuild.onPath(r.c)
	rep.metrics["md.rebuild_ms"] = rebuildMs
	if len(rebuildExtra) > 0 {
		rep.metrics["md.rebuild_ms"] = median(rebuildExtra)
	}

	// The alloy engine reads the AoS positions: it does not pack.
	packMs := lt.pack
	if r.c.alloy {
		packMs = 0
	}
	var unexplained time.Duration
	for _, s := range w.steps {
		t := tr.derive("md.other", s.start, dur(lt.other/2), s.span, 0, trackSteps)
		t = tr.derive("neighbor.skin_check", t, dur(lt.skin), s.span, 0, trackSteps)
		accounted := dur(lt.other + lt.skin + packMs)
		if s.rebuild {
			t = tr.derive("md.rebuild", t, dur(rebuildMs), s.span, 0, trackSteps)
			accounted += dur(rebuildMs)
		}
		t = tr.derive("force.pack", t, dur(packMs), s.span, 0, trackSteps)
		t = tr.derive("force.density", t, s.density, s.span, 0, trackSteps)
		t = tr.derive("force.embed", t, s.embed, s.span, 0, trackSteps)
		t = tr.derive("force.force", t, s.force, s.span, 0, trackSteps)
		tr.derive("md.other", t, dur(lt.other/2), s.span, 0, trackSteps)
		accounted += s.density + s.embed + s.force
		unexplained += s.wall - accounted
	}
	unexplainedMs := ms(unexplained) / n
	visits := 2 * r.sim.Reducer().PairWork() // density and force sweeps
	for name, v := range map[string]float64{
		"md.step_ms":                         stepMs,
		"md.step_ms_p90":                     percentile(walls, 0.90),
		"md.other_ms":                        lt.other,
		"md.unexplained_pct":                 100 * unexplainedMs / stepMs,
		"force.density_ms":                   densMs,
		"force.embed_ms":                     embMs,
		"force.force_ms":                     frcMs,
		"force.pack_ms":                      lt.pack,
		"force.compute_ms":                   densMs + embMs + frcMs + packMs,
		"force.pair_visits":                  float64(visits),
		"force.ns_per_pair_visit":            (densMs + frcMs) * 1e6 / float64(visits),
		"neighbor.skin_check_ms":             lt.skin,
		"neighbor.rebuild_fraction":          float64(rebuilds) / n,
		"neighbor.pairs":                     float64(r.sim.List().Pairs()),
		"neighbor.useful_pair_ratio":         r.usefulPairRatio(),
		"neighbor.build_ms":                  lt.rebuild.build,
		"core.rebin_ms":                      lt.rebuild.rebin,
		"core.subdomain_atoms_max_over_mean": subdomainMaxOverMean(r.sim.Decomposition()),
		"reorder.block_ms":                   lt.rebuild.reorder,
		"strategy.new_ms":                    lt.rebuild.newReducer,
	} {
		rep.metrics[name] = v
	}
	workerMetrics(rep, w.base, w.end, n)

	logf(log, "layer ledger, ms per traced step (%d steps, %d rebuilds):\n", len(w.steps), rebuilds)
	for _, l := range []struct {
		name string
		v    float64
	}{
		{"force.density", densMs}, {"force.embed", embMs}, {"force.force", frcMs},
		{"force.pack", packMs}, {"neighbor.skin_check", lt.skin}, {"md.other", lt.other},
		{"md.rebuild (amortized)", rebuildMs * float64(rebuilds) / n},
		{"sum of layers", stepMs - unexplainedMs}, {"md.step", stepMs},
		{"unexplained remainder", unexplainedMs},
	} {
		logf(log, "  %-24s %10.4f\n", l.name, l.v)
	}
	verdict := "within"
	if math.Abs(unexplainedMs) > 0.05*stepMs {
		verdict = "OUTSIDE"
	}
	logf(log, "layer sum %s 5%% of md.step: remainder %.4f ms (%.2f%%)\n",
		verdict, unexplainedMs, 100*unexplainedMs/stepMs)
}

func phaseDelta(cur, prev telemetry.PhaseStat) time.Duration {
	return time.Duration((cur.Seconds - prev.Seconds) * 1e9)
}

func dur(msv float64) time.Duration { return time.Duration(msv * 1e6) }

// workerMetrics derives the strategy layer's barrier wait, imbalance
// and utilization from the pool workers' busy/wait accumulators over
// the traced window.
func workerMetrics(rep *report, base, end telemetry.Metrics, steps float64) {
	var busy []float64
	waitTotal, busyTotal := 0.0, 0.0
	for i, w := range end.Workers {
		b, wt := w.BusySeconds, w.WaitSeconds
		if i < len(base.Workers) {
			b -= base.Workers[i].BusySeconds
			wt -= base.Workers[i].WaitSeconds
		}
		busy = append(busy, b)
		busyTotal += b
		waitTotal += wt
	}
	nw := float64(len(busy))
	maxBusy := 0.0
	for _, b := range busy {
		maxBusy = math.Max(maxBusy, b)
	}
	rep.metrics["strategy.barrier_wait_ms"] = 1e3 * waitTotal / nw / steps
	rep.metrics["strategy.imbalance"] = maxBusy / (busyTotal / nw)
	rep.metrics["strategy.utilization"] = busyTotal / (busyTotal + waitTotal)
}

// rebuildTimes are the medians of the rebuild components.
type rebuildTimes struct {
	rebin, reorder, build, newReducer float64
}

// onPath is the rebuild cost on the workload's blocking path: the block
// reorder runs only when the workload enables it.
func (t rebuildTimes) onPath(c mdCase) float64 {
	sum := t.rebin + t.build + t.newReducer
	if c.reorder {
		sum += t.reorder
	}
	return sum
}

// rebuildComponents replays md's rebuild sequence on each copy: rebin
// the decomposition, block-reorder the atoms, build the neighbor list
// and construct the reducer, timing each public call.
func (r *mdRun) rebuildComponents(copies []*md.System, tr *tracer) (rebuildTimes, error) {
	cfg := r.sim.Config()
	reach := r.c.cutoff(cfg) + r.c.skin
	pool, err := strategy.NewPool(r.c.threads)
	if err != nil {
		return rebuildTimes{}, err
	}
	defer pool.Close()
	var rebin, reord, build, newRed []float64
	for i, cp := range copies {
		trace := int64(i)
		dec, err := core.Decompose(cp.Box, cp.Pos, sdcDim, reach)
		if err != nil {
			return rebuildTimes{}, err
		}
		rebin = append(rebin, ms(tr.timed("core.rebin", -1, trace, trackLayers, func() { dec.Rebin(cp.Pos) })))
		var rerr error
		reord = append(reord, ms(tr.timed("reorder.block", -1, trace, trackLayers, func() {
			perm, err := reorder.FromNewToOld(dec.PartIndex)
			if err != nil {
				rerr = err
				return
			}
			if err := cp.Permute(perm); err != nil {
				rerr = err
				return
			}
			dec.Rebin(cp.Pos)
		})))
		if rerr != nil {
			return rebuildTimes{}, rerr
		}
		var list *neighbor.List
		build = append(build, ms(tr.timed("neighbor.build", -1, trace, trackLayers, func() {
			list, rerr = neighbor.Builder{Cutoff: r.c.cutoff(cfg), Skin: r.c.skin, Half: true}.Build(cp.Box, cp.Pos)
		})))
		if rerr != nil {
			return rebuildTimes{}, rerr
		}
		newRed = append(newRed, ms(tr.timed("strategy.new", -1, trace, trackLayers, func() {
			_, rerr = strategy.New(strategy.Config{Kind: strategy.SDC, List: list, Pool: pool, Decomp: dec})
		})))
		if rerr != nil {
			return rebuildTimes{}, rerr
		}
	}
	return rebuildTimes{rebin: median(rebin), reorder: median(reord), build: median(build), newReducer: median(newRed)}, nil
}

// otherProbe measures the step's serial loops outside the force call —
// both velocity kicks, drift/wrap and the finite-force scan — by running
// md.Simulator.StepCtx on a copy of the state with a pair potential
// whose cutoff is shorter than any interatomic distance, so the force
// call does no pair work. The probe's phase timers, the pack and the
// skin check are subtracted from each probe step.
func otherProbe(sys *md.System, packMs, skinMs float64, tr *tracer) (float64, error) {
	lj, err := potential.NewLennardJones(1e-3, 0.5, 0.9, 1.0)
	if err != nil {
		return 0, err
	}
	rec := telemetry.NewRecorder()
	cfg := md.DefaultConfig()
	cfg.Pot = potential.PairOnly{P: lj}
	cfg.Skin = 1.0
	cfg.Telemetry = rec
	probe, err := md.NewSimulator(sys.Clone(), cfg)
	if err != nil {
		return 0, fmt.Errorf("zero-force probe: %w", err)
	}
	defer probe.Close()
	prev := rec.Snapshot()
	var other []float64
	for k := 0; k < otherProbeSteps; k++ {
		r0 := probe.Rebuilds()
		var serr error
		d := tr.timed("md.other_probe_step", -1, int64(k), trackLayers, func() { serr = probe.Step(1) })
		if serr != nil {
			return 0, fmt.Errorf("zero-force probe: %w", serr)
		}
		snap := rec.Snapshot()
		phases := phaseDelta(snap.Density, prev.Density) + phaseDelta(snap.Embed, prev.Embed) + phaseDelta(snap.Force, prev.Force)
		prev = snap
		if probe.Rebuilds() == r0 {
			other = append(other, ms(d-phases)-packMs-skinMs)
		}
	}
	return median(other), nil
}

// serialBaseline runs the serial strategy on a copy of the state for
// serialSteps steps or serialBudget, whichever ends first.
func serialBaseline(rep *report, c mdCase, sys *md.System, species []int32, tr *tracer) (float64, error) {
	cfg := c.config(species, nil)
	cfg.Strategy = strategy.Serial
	cfg.Threads = 1
	cfg.BlockReorder = false
	sim, err := md.NewSimulator(sys.Clone(), cfg)
	if err != nil {
		return 0, fmt.Errorf("serial baseline: %w", err)
	}
	defer sim.Close()
	start := time.Now()
	n := 0
	for n < serialSteps && (n == 0 || time.Since(start) < serialBudget) {
		var serr error
		tr.timed("baseline.serial_step", -1, int64(n), trackBaseline, func() { serr = sim.Step(1) })
		rep.attempted++
		if serr != nil {
			rep.failed++
			return 0, fmt.Errorf("serial baseline: %w", serr)
		}
		n++
	}
	return ms(time.Since(start)) / float64(n), nil
}

// usefulPairRatio is the share of listed pairs inside the potential
// cutoff at the current positions: the rest is skin the sweeps visit
// and discard.
func (r *mdRun) usefulPairRatio() float64 {
	list := r.sim.List()
	cut := r.c.cutoff(r.sim.Config())
	cut2 := cut * cut
	pos, bx := r.sim.Sys.Pos, r.sim.Sys.Box
	inside := 0
	for i := 0; i < list.N(); i++ {
		for _, j := range list.Neighbors(i) {
			if bx.Distance2(pos[i], pos[j]) < cut2 {
				inside++
			}
		}
	}
	if list.Pairs() == 0 {
		return 0
	}
	return float64(inside) / float64(list.Pairs())
}

// subdomainMaxOverMean is the SDC load-balance figure: the largest
// subdomain's atom count over the mean.
func subdomainMaxOverMean(dec *core.Decomposition) float64 {
	ns := dec.NumSubdomains()
	maxN, total := 0, 0
	for s := 0; s < ns; s++ {
		n := dec.AtomCount(s)
		total += n
		if n > maxN {
			maxN = n
		}
	}
	return float64(maxN) / (float64(total) / float64(ns))
}
