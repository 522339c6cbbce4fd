package guard

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sdcmd/internal/box"
	"sdcmd/internal/core"
	"sdcmd/internal/lattice"
	"sdcmd/internal/md"
	"sdcmd/internal/strategy"
	"sdcmd/internal/vec"
	"sdcmd/internal/xyz"
)

func feSystem(t *testing.T, cells int, temperature float64) *md.System {
	t.Helper()
	cfg := lattice.MustBuild(lattice.BCC, cells, cells, cells, 2.8665)
	sys := md.FromLattice(cfg)
	if err := sys.InitVelocities(temperature, 7); err != nil {
		t.Fatal(err)
	}
	return sys
}

func kinds(events []Event) []EventKind {
	out := make([]EventKind, len(events))
	for i, e := range events {
		out[i] = e.Kind
	}
	return out
}

func hasEvent(events []Event, kind EventKind, detailSub string) bool {
	for _, e := range events {
		if e.Kind == kind && strings.Contains(e.Detail, detailSub) {
			return true
		}
	}
	return false
}

// runScenario runs one supervised simulation of a 54-atom crystal
// under md.DefaultConfig to completion and returns the supervisor
// (still open; caller closes).
func runScenario(t *testing.T, pol Policy, steps int) *Supervisor {
	t.Helper()
	return runScenarioOf(t, 3, md.DefaultConfig(), pol, steps)
}

// runScenarioOf is runScenario on a crystal of cells³ unit cells under
// cfg.
func runScenarioOf(t *testing.T, cells int, cfg md.Config, pol Policy, steps int) *Supervisor {
	t.Helper()
	sup, err := New(feSystem(t, cells, 150), cfg, pol)
	if err != nil {
		t.Fatal(err)
	}
	if err := sup.Run(steps); err != nil {
		sup.Close()
		t.Fatalf("supervised run failed: %v", err)
	}
	return sup
}

func TestRecoveryFromInjectedNaNForce(t *testing.T) {
	pol := Policy{
		CheckEvery: 5,
		MaxRetries: 3,
		Inject: NewInjector(
			&Injection{AtStep: 10, Kind: InjectForceNaN, Atom: 3, Component: 1},
		),
	}
	sup := runScenario(t, pol, 30)
	defer sup.Close()

	if sup.StepCount() != 30 {
		t.Errorf("step count %d, want 30", sup.StepCount())
	}
	if sup.Retries() != 1 {
		t.Errorf("retries %d, want 1", sup.Retries())
	}
	ev := sup.Events()
	if !hasEvent(ev, EventFault, "finite-force") {
		t.Errorf("no finite-force fault in log: %v", kinds(ev))
	}
	if !hasEvent(ev, EventHalveDt, "") {
		t.Errorf("first retry did not halve dt: %v", kinds(ev))
	}
	if !hasEvent(ev, EventRollback, "rolled back to step 5") {
		t.Errorf("no rollback to the pre-fault snapshot: %v", ev)
	}
	if got := sup.Config().Dt; !(got < md.DefaultConfig().Dt) {
		t.Errorf("dt %g not degraded", got)
	}
	if f := checkVectors(sup.System().Pos, sup.System().Vel, sup.System().Force, 30); f != nil {
		t.Errorf("final state not clean: %v", f)
	}
}

// TestApplyStrainIsTheRollbackTarget strains the crystal at step 5,
// where the ring already holds the unstrained step-5 state, and faults
// at step 10: the rollback must land on the strained state, so the run
// ends in the strained box.
func TestApplyStrainIsTheRollbackTarget(t *testing.T) {
	pol := Policy{
		CheckEvery: 5,
		Inject:     NewInjector(&Injection{AtStep: 10, Kind: InjectForceNaN, Atom: 3, Component: 1}),
	}
	sup := runScenario(t, pol, 5)
	defer sup.Close()
	want := sup.System().Box.Lengths()[0] * 1.01
	if err := sup.ApplyStrain(vec.New(0.01, 0, 0)); err != nil {
		t.Fatal(err)
	}
	if err := sup.Run(10); err != nil {
		t.Fatal(err)
	}
	if !hasEvent(sup.Events(), EventRollback, "rolled back to step 5") {
		t.Fatalf("no rollback to step 5: %v", sup.Events())
	}
	if got := sup.System().Box.Lengths()[0]; math.Abs(got-want) > 1e-9*want {
		t.Errorf("box x length %g after the rollback, want the strained %g", got, want)
	}
	if sup.StepCount() != 15 {
		t.Errorf("step count %d, want 15", sup.StepCount())
	}
}

func TestRecoveryIsDeterministic(t *testing.T) {
	// The whole recovery path — fault, rollback, degraded re-run — must
	// be a pure function of the schedule: two identical supervised runs
	// end in bit-identical states.
	run := func() []vec.Vec3 {
		pol := Policy{
			CheckEvery: 5,
			MaxRetries: 3,
			Inject: NewInjector(
				&Injection{AtStep: 10, Kind: InjectForceNaN, Atom: 3, Component: 0},
			),
		}
		sup := runScenario(t, pol, 25)
		defer sup.Close()
		return append([]vec.Vec3(nil), sup.System().Pos...)
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("recovered trajectories diverged at atom %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestRecoveryFromEnergyBlowup(t *testing.T) {
	pol := Policy{
		CheckEvery: 5,
		MaxRetries: 3,
		Limits:     Limits{MaxTemperature: 2000},
		Inject: NewInjector(
			// 150 Å/ps on one component of one iron atom is ~65 eV of
			// kinetic energy, ~9000 K across 54 atoms: the temperature
			// monitor fires.
			&Injection{AtStep: 15, Kind: InjectVelSpike, Atom: 0, Component: 2, Magnitude: 150},
		),
	}
	sup := runScenario(t, pol, 30)
	defer sup.Close()
	ev := sup.Events()
	if !hasEvent(ev, EventFault, "temperature") {
		t.Fatalf("no temperature fault in log: %v", ev)
	}
	if !hasEvent(ev, EventRollback, "") {
		t.Errorf("no rollback after blow-up: %v", kinds(ev))
	}
	if T := sup.System().Temperature(); T > 2000 {
		t.Errorf("final temperature %g K still above limit", T)
	}
}

func TestRecoveryFromStalledSweep(t *testing.T) {
	pol := Policy{
		CheckEvery:   5,
		MaxRetries:   3,
		StepDeadline: 100 * time.Millisecond,
		Inject: NewInjector(
			&Injection{AtStep: 8, Kind: InjectStall, Delay: 2 * time.Second},
		),
	}
	start := time.Now()
	sup := runScenario(t, pol, 20)
	defer sup.Close()
	ev := sup.Events()
	if !hasEvent(ev, EventFault, "watchdog") {
		t.Fatalf("no watchdog fault in log: %v", ev)
	}
	if !hasEvent(ev, EventRollback, "rolled back to step 5") {
		t.Errorf("no rollback to the pre-stall snapshot: %v", ev)
	}
	if sup.StepCount() != 20 {
		t.Errorf("step count %d, want 20", sup.StepCount())
	}
	// The run must not have served the full stall synchronously twice.
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("run took %v — watchdog did not cut the stall short", elapsed)
	}
}

func TestRetryBudgetExhausted(t *testing.T) {
	pol := Policy{
		CheckEvery: 5,
		MaxRetries: 1,
		Inject: NewInjector(
			&Injection{AtStep: 5, Kind: InjectForceNaN, Atom: 0},
			&Injection{AtStep: 10, Kind: InjectVelNaN, Atom: 1},
		),
	}
	sup, err := New(feSystem(t, 3, 150), md.DefaultConfig(), pol)
	if err != nil {
		t.Fatal(err)
	}
	defer sup.Close()
	err = sup.Run(30)
	if err == nil {
		t.Fatal("run with two faults survived a budget of one retry")
	}
	f, ok := AsFault(err)
	if !ok {
		t.Fatalf("error %v does not wrap a Fault", err)
	}
	if f.Monitor != "finite-vel" {
		t.Errorf("terminal fault monitor %q, want finite-vel (the second injection)", f.Monitor)
	}
	if !hasEvent(sup.Events(), EventGiveUp, "") {
		t.Errorf("no give-up event: %v", kinds(sup.Events()))
	}
}

func TestDegradationLadder(t *testing.T) {
	// Ladder order: halve dt, then SDC -> CS -> Serial, then dt again.
	for _, tc := range []struct {
		from strategy.Kind
		want strategy.Kind
		ok   bool
	}{
		{strategy.SDC, strategy.CS, true},
		{strategy.CS, strategy.Serial, true},
		{strategy.AtomicCS, strategy.Serial, true},
		{strategy.SAP, strategy.Serial, true},
		{strategy.RC, strategy.Serial, true},
		{strategy.Serial, strategy.Serial, false},
	} {
		got, ok := downgradeStrategy(tc.from)
		if got != tc.want || ok != tc.ok {
			t.Errorf("downgrade(%v) = %v,%v want %v,%v", tc.from, got, ok, tc.want, tc.ok)
		}
	}

	// Drive a supervisor through three retries and watch the ladder.
	// SDC Dim2 needs an even number of subdomains with edge >= 2*reach
	// per split axis, so the box must be at least 6 BCC cells wide.
	sys := feSystem(t, 6, 150)
	cfg := md.DefaultConfig()
	cfg.Strategy = strategy.SDC
	cfg.Threads = 2
	pol := Policy{
		CheckEvery: 5,
		MaxRetries: 5,
		Inject: NewInjector(
			&Injection{AtStep: 5, Kind: InjectForceNaN, Atom: 0},
			&Injection{AtStep: 10, Kind: InjectForceNaN, Atom: 1},
			&Injection{AtStep: 15, Kind: InjectForceNaN, Atom: 2},
		),
	}
	sup, err := New(sys, cfg, pol)
	if err != nil {
		t.Fatal(err)
	}
	defer sup.Close()
	if err := sup.Run(30); err != nil {
		t.Fatal(err)
	}
	ev := sup.Events()
	if !hasEvent(ev, EventHalveDt, "") {
		t.Errorf("retry 1 did not halve dt: %v", ev)
	}
	if !hasEvent(ev, EventDegradeStrategy, "sdc -> cs") {
		t.Errorf("retry 2 did not degrade sdc->cs: %v", ev)
	}
	if !hasEvent(ev, EventDegradeStrategy, "cs -> serial") {
		t.Errorf("retry 3 did not degrade cs->serial: %v", ev)
	}
	if got := sup.Config().Strategy; got != strategy.Serial {
		t.Errorf("final strategy %v, want serial", got)
	}
}

// TestRecoveryDegradesBlockReorderedSDC drives a block-reordered SDC
// run down the ladder: the second fault leaves SDC, which must turn
// the reorder off rather than leave a configuration no simulator
// accepts, so the rollback finds its snapshot.
func TestRecoveryDegradesBlockReorderedSDC(t *testing.T) {
	cfg := md.DefaultConfig()
	cfg.Strategy, cfg.Threads, cfg.Dim, cfg.BlockReorder = strategy.SDC, 2, core.Dim2, true
	pol := Policy{
		CheckEvery: 5,
		MaxRetries: 3,
		Inject: NewInjector(
			&Injection{AtStep: 5, Kind: InjectForceNaN, Atom: 0},
			&Injection{AtStep: 10, Kind: InjectForceNaN, Atom: 1},
		),
	}
	sup, err := New(feSystem(t, 6, 150), cfg, pol)
	if err != nil {
		t.Fatal(err)
	}
	defer sup.Close()
	if err := sup.Run(20); err != nil {
		t.Fatalf("run failed: %v (events %v)", err, kinds(sup.Events()))
	}
	ev := sup.Events()
	if !hasEvent(ev, EventDegradeStrategy, "sdc -> cs, block reorder off") {
		t.Errorf("retry 2 did not degrade sdc->cs with the reorder off: %v", ev)
	}
	if got := sup.Config(); got.Strategy != strategy.CS || got.BlockReorder {
		t.Errorf("final strategy %v, block reorder %v; want cs without the reorder", got.Strategy, got.BlockReorder)
	}
	if sup.StepCount() != 20 {
		t.Errorf("step count %d, want 20", sup.StepCount())
	}
}

// TestRecoveryKeepsSnapshotsOnConfigError hands restore a configuration
// no simulator accepts: it must return the configuration's error and
// keep every snapshot, since none of them is at fault.
func TestRecoveryKeepsSnapshotsOnConfigError(t *testing.T) {
	sup, err := New(feSystem(t, 3, 150), md.DefaultConfig(), Policy{CheckEvery: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer sup.Close()
	if err := sup.Run(10); err != nil {
		t.Fatal(err)
	}
	kept := sup.ring.len()
	sup.cfg.BlockReorder = true // serial strategy: rejected by Validate
	err = sup.restore(&Fault{Monitor: "test", Step: 10, Atom: -1})
	if err == nil || !strings.Contains(err.Error(), "BlockReorder requires the sdc strategy") {
		t.Errorf("restore error %v, want the configuration's", err)
	}
	if got := sup.ring.len(); got != kept || kept == 0 {
		t.Errorf("%d snapshots after restore, want the %d kept", got, kept)
	}
}

// TestCheckpointResumeBitForBit stops a run at its checkpoint, resumes
// it from the file and requires the final checkpoint of the resumed run
// to equal the uninterrupted run's byte for byte. The block-reordered
// SDC case re-sorts the atoms into cell order at the rebuild every
// checkpoint forces, and the resumed run sorts the loaded atoms at its
// first build.
func TestCheckpointResumeBitForBit(t *testing.T) {
	blocked := md.DefaultConfig()
	blocked.Strategy, blocked.Threads, blocked.Dim, blocked.BlockReorder = strategy.SDC, 2, core.Dim2, true
	for _, c := range []struct {
		name  string
		cells int
		cfg   md.Config
	}{
		{"serial", 3, md.DefaultConfig()},
		{"sdc-blocked", 6, blocked},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			full := filepath.Join(dir, "full.sdck")
			part := filepath.Join(dir, "part.sdck")

			newPol := func(path string) Policy {
				return Policy{CheckEvery: 5, CheckpointEvery: 10, CheckpointPath: path}
			}
			// Uninterrupted run to step 30.
			supA := runScenarioOf(t, c.cells, c.cfg, newPol(full), 30)
			supA.Close()

			// Interrupted twin: stop at step 10 (the checkpoint is on disk),
			// then resume from the file and continue to 30.
			supB := runScenarioOf(t, c.cells, c.cfg, newPol(part), 10)
			supB.Close()
			supC, err := Resume(part, c.cfg, newPol(part))
			if err != nil {
				t.Fatal(err)
			}
			defer supC.Close()
			if supC.StepCount() != 10 {
				t.Fatalf("resume step count %d, want 10", supC.StepCount())
			}
			if !hasEvent(supC.Events(), EventResume, "") {
				t.Errorf("no resume event: %v", kinds(supC.Events()))
			}
			if err := supC.Run(20); err != nil {
				t.Fatal(err)
			}

			a, err := os.ReadFile(full)
			if err != nil {
				t.Fatal(err)
			}
			b, err := os.ReadFile(part)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a, b) {
				t.Fatal("resumed run's final checkpoint differs from the uninterrupted run's — resume is not bit-for-bit")
			}
		})
	}
}

func TestEnergyDriftMonitor(t *testing.T) {
	// An impossible drift ceiling must fault, burn the retry budget
	// (rollback cannot cure a threshold violated by normal dynamics)
	// and surface a typed energy-drift fault.
	pol := Policy{
		CheckEvery: 5,
		MaxRetries: 2,
		Limits:     Limits{MaxDriftPerAtom: 1e-15},
	}
	sup, err := New(feSystem(t, 3, 150), md.DefaultConfig(), pol)
	if err != nil {
		t.Fatal(err)
	}
	defer sup.Close()
	err = sup.Run(50)
	if err == nil {
		t.Fatal("1e-15 eV/atom drift ceiling survived 50 steps")
	}
	if f, ok := AsFault(err); !ok || f.Monitor != "energy-drift" {
		t.Fatalf("terminal error %v is not an energy-drift fault", err)
	}
}

func TestEscapeMonitor(t *testing.T) {
	bx := box.MustNew(vec.Zero, vec.Splat(10))
	bx.Periodic = [3]bool{false, true, true}
	sys := md.MustNewSystem(bx, 2, md.FeMass)
	sys.Pos[0] = vec.New(5, 5, 5)
	sys.Pos[1] = vec.New(11.5, 5, 5) // 1.5 Å beyond the x face
	lim := Limits{EscapeMargin: 2}
	if f := CheckSystem(sys, 0, lim); f != nil {
		t.Errorf("atom within margin flagged: %v", f)
	}
	lim.EscapeMargin = 1
	f := CheckSystem(sys, 7, lim)
	if f == nil {
		t.Fatal("escaped atom not flagged")
	}
	if f.Monitor != "escape" || f.Atom != 1 || f.Step != 7 {
		t.Errorf("fault %+v: want escape on atom 1 at step 7", f)
	}
	// Periodic axes cannot escape.
	sys.Pos[1] = vec.New(5, 25, 5)
	if f := CheckSystem(sys, 0, Limits{EscapeMargin: 1}); f == nil {
		t.Skip("wrapped axis flagged — periodic positions are wrapped by Step, so this state is unreachable")
	}
}

func TestEventLogStreamsJSONLines(t *testing.T) {
	var buf bytes.Buffer
	pol := Policy{
		CheckEvery:  5,
		MaxRetries:  3,
		EventWriter: &buf,
		Inject: NewInjector(
			&Injection{AtStep: 10, Kind: InjectForceNaN, Atom: 0},
		),
	}
	sup := runScenario(t, pol, 20)
	defer sup.Close()
	if sup.StreamError() != nil {
		t.Fatalf("stream error: %v", sup.StreamError())
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != len(sup.Events()) {
		t.Fatalf("%d stream lines for %d events", len(lines), len(sup.Events()))
	}
	for i, line := range lines {
		var ev Event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("line %d is not JSON: %v", i, err)
		}
		if ev.Kind == "" {
			t.Errorf("line %d has empty kind", i)
		}
	}
}

func TestInjectorSchedule(t *testing.T) {
	in := NewInjector(
		&Injection{AtStep: 7, Kind: InjectStall, Delay: time.Second},
		&Injection{AtStep: 12, Kind: InjectForceNaN, Atom: 0},
	)
	if d := in.stallFor(0, 5); d != 0 {
		t.Errorf("stall fired in (0,5]: %v", d)
	}
	if d := in.stallFor(5, 5); d != time.Second {
		t.Errorf("stall in (5,10] = %v, want 1s", d)
	}
	if d := in.stallFor(5, 5); d != 0 {
		t.Errorf("stall fired twice: %v", d)
	}
	sys := md.MustNewSystem(box.MustNew(vec.Zero, vec.Splat(10)), 2, md.FeMass)
	if fired := in.corrupt(sys, 10); len(fired) != 0 {
		t.Errorf("state injection fired early: %v", fired)
	}
	fired := in.corrupt(sys, 15)
	if len(fired) != 1 || fired[0].Kind != InjectForceNaN {
		t.Fatalf("fired %v, want one force-nan", fired)
	}
	if !math.IsNaN(sys.Force[0][0]) {
		t.Error("force not corrupted")
	}
	if fired := in.corrupt(sys, 20); len(fired) != 0 {
		t.Errorf("state injection fired twice: %v", fired)
	}
	// nil injector is inert.
	var none *Injector
	if none.corrupt(sys, 100) != nil || none.stallFor(0, 100) != 0 {
		t.Error("nil injector injected something")
	}
}

func TestSnapshotRing(t *testing.T) {
	r := newSnapRing(3)
	if r.last() != nil || r.len() != 0 {
		t.Fatal("empty ring not empty")
	}
	sys := md.MustNewSystem(box.MustNew(vec.Zero, vec.Splat(10)), 1, md.FeMass)
	for step := 1; step <= 5; step++ {
		r.push(xyz.FromSystem(sys, "Fe", "", step*10))
	}
	if r.len() != 3 {
		t.Errorf("ring holds %d, want 3", r.len())
	}
	if got := r.last().Step; got != 50 {
		t.Errorf("last step %d, want 50", got)
	}
	r.dropLast()
	if got := r.last().Step; got != 40 {
		t.Errorf("after drop, last step %d, want 40", got)
	}
	r.dropLast()
	r.dropLast()
	if r.last() != nil {
		t.Error("drained ring still has entries")
	}
	r.dropLast() // must not panic on empty
}

func TestPolicyValidation(t *testing.T) {
	sys := feSystem(t, 3, 100)
	if _, err := New(nil, md.DefaultConfig(), Policy{}); err == nil {
		t.Error("nil system accepted")
	}
	if _, err := New(sys, md.DefaultConfig(), Policy{CheckpointEvery: 5}); err == nil {
		t.Error("CheckpointEvery without a path accepted")
	}
	bad := md.DefaultConfig()
	bad.Dt = math.NaN()
	if _, err := New(sys, bad, Policy{}); err == nil {
		t.Error("NaN dt accepted")
	}
	// Initial state violating invariants must be rejected up front.
	hot := feSystem(t, 3, 100)
	hot.Vel[0] = vec.New(1e6, 0, 0)
	if _, err := New(hot, md.DefaultConfig(), Policy{Limits: Limits{MaxTemperature: 500}}); err == nil {
		t.Error("blown-up initial state accepted")
	}
	sup, err := New(feSystem(t, 3, 100), md.DefaultConfig(), Policy{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sup.Run(-1); err == nil {
		t.Error("negative step count accepted")
	}
	if err := sup.Checkpoint(); err == nil {
		t.Error("Checkpoint without a path accepted")
	}
	sup.Close()
	if err := sup.Run(1); err == nil {
		t.Error("Run after Close accepted")
	}
}

func TestCheckpointTempSweepOnStartup(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ckpt.sdck")
	// A crashed earlier run left a torn temp next to the checkpoint,
	// plus an unrelated file that must survive the sweep.
	stale := path + ".tmp-999-1"
	other := filepath.Join(dir, "notes.txt")
	for _, p := range []string{stale, other} {
		if err := os.WriteFile(p, []byte("leftover"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	sup, err := New(feSystem(t, 3, 150), md.DefaultConfig(),
		Policy{CheckEvery: 5, CheckpointEvery: 10, CheckpointPath: path})
	if err != nil {
		t.Fatal(err)
	}
	defer sup.Close()
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Errorf("stale checkpoint temp not swept (stat err: %v)", err)
	}
	if _, err := os.Stat(other); err != nil {
		t.Errorf("sweep touched unrelated file: %v", err)
	}
}
