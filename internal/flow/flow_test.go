package flow

import (
	"flag"
	"go/ast"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"sdcmd/internal/lattice"
	"sdcmd/internal/lint"
	"sdcmd/internal/neighbor"
	"sdcmd/internal/strategy"
	"sdcmd/internal/vec"
)

var update = flag.Bool("update", false, "rewrite golden files")

// fixture is one broken fixture module and the passes it pins. The
// write-set tree holds the worker-body and kernel hazards, the
// lifecycle tree the concurrency ones; each golden file pins only its
// own passes (nondet-order would also flag the write-set tree's
// map-iterating kernel, which exists to be a hot-loop finding).
type fixture struct {
	dir, golden string
	rules       []string
}

var fixtures = []fixture{
	{filepath.Join("testdata", "writeset"), filepath.Join("testdata", "golden", "writeset.txt"),
		[]string{"sdc-shared-write", "hot-loop"}},
	{filepath.Join("testdata", "src"), filepath.Join("testdata", "golden", "findings.txt"),
		[]string{"goroutine-leak", "lock-order", "ctx-propagation", "nondet-order"}},
}

var writeset, lifecycle = fixtures[0], fixtures[1]

func (fx fixture) load(t testing.TB) []*lint.Package {
	t.Helper()
	pkgs, err := lint.Load(fx.dir, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) == 0 {
		t.Fatal("fixture loaded no packages")
	}
	return pkgs
}

func (fx fixture) passes() []lint.Pass {
	var out []lint.Pass
	for _, p := range Passes() {
		for _, r := range fx.rules {
			if p.Name() == r {
				out = append(out, p)
			}
		}
	}
	return out
}

func (fx fixture) findings(t testing.TB) []lint.Finding {
	t.Helper()
	return lint.RunPasses(fx.load(t), fx.passes())
}

// TestGoldenFixture pins every finding — rule, file, line, column and
// message — over the lifecycle fixture module.
func TestGoldenFixture(t *testing.T) { lifecycle.checkGolden(t) }

// TestWriteSetGoldenFixture pins every finding over the write-set
// fixture module.
func TestWriteSetGoldenFixture(t *testing.T) { writeset.checkGolden(t) }

func (fx fixture) checkGolden(t *testing.T) {
	t.Helper()
	var sb strings.Builder
	for _, f := range fx.findings(t) {
		sb.WriteString(f.String())
		sb.WriteString("\n")
	}
	got := sb.String()
	if *update {
		if err := os.MkdirAll(filepath.Dir(fx.golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(fx.golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(fx.golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("findings diverge from golden (run with -update to regenerate)\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestEveryPassFires asserts each pass has at least one finding on its
// broken fixture: a pass that cannot fire proves nothing.
func TestEveryPassFires(t *testing.T) {
	fired := map[string]bool{}
	for _, fx := range fixtures {
		for _, f := range fx.findings(t) {
			fired[f.Rule] = true
		}
	}
	for _, p := range Passes() {
		if !fired[p.Name()] {
			t.Errorf("pass %s produced no fixture finding", p.Name())
		}
	}
}

// TestSafePatternsProve asserts the analyzer accepts every join/stop,
// lock-discipline, cancellation and sorted-iteration idiom in the
// lifecycle fixture's safe.go files.
func TestSafePatternsProve(t *testing.T) { lifecycle.checkSafe(t) }

// TestWriteSetSafePatternsProve asserts the analyzer proves every
// confinement idiom in the write-set fixture's safe.go: block indices,
// tid slots, privatized buffers, local scratch and claimed indices.
func TestWriteSetSafePatternsProve(t *testing.T) { writeset.checkSafe(t) }

func (fx fixture) checkSafe(t *testing.T) {
	t.Helper()
	for _, f := range fx.findings(t) {
		if strings.HasSuffix(f.File, "safe.go") {
			t.Errorf("false positive on safe pattern: %s", f)
		}
	}
}

// TestApprovedPathSkipped asserts the strategy fixture's uncolorable
// scatter (good.go writes out[j] too) is exempt via ApprovedPaths.
func TestApprovedPathSkipped(t *testing.T) {
	for _, f := range writeset.findings(t) {
		if strings.HasPrefix(f.File, "internal/strategy/") {
			t.Errorf("approved path was not skipped: %s", f)
		}
	}
}

// TestHotLoopNegativeControl asserts that hotness comes from the call
// graph and the kernel packages, not from syntax or names: neither the
// unreachable coldAlloc nor the budget fixture's Compute, a kernel root
// name outside internal/force and internal/strategy, is flagged.
func TestHotLoopNegativeControl(t *testing.T) {
	pkgs := writeset.load(t)
	for _, c := range []struct{ file, decl string }{
		{"force/kernel.go", "coldAlloc"},
		{"budget/budget.go", "Compute"},
	} {
		span := declSpan(t, pkgs, c.file, c.decl)
		for _, f := range lint.RunPasses(pkgs, writeset.passes()) {
			if f.Rule == "hot-loop" && strings.HasSuffix(f.File, c.file) &&
				f.Line >= span[0] && f.Line <= span[1] {
				t.Errorf("%s flagged: %s", c.decl, f)
			}
		}
	}
}

// declSpan returns the [start, end] line range of a named declaration
// in the fixture.
func declSpan(t testing.TB, pkgs []*lint.Package, fileSuffix, name string) [2]int {
	t.Helper()
	for _, p := range pkgs {
		for _, f := range p.Files {
			if !strings.HasSuffix(f.Rel, fileSuffix) {
				continue
			}
			for _, d := range f.AST.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Name.Name != name {
					continue
				}
				return [2]int{p.Fset.Position(fd.Pos()).Line, p.Fset.Position(fd.End()).Line}
			}
		}
	}
	t.Fatalf("declaration %s not found in %s", name, fileSuffix)
	return [2]int{}
}

// uncoloredVetReducer mirrors the seeded-race fixture of the strategy
// package's own tests: SDC's shared-pair write pattern with the
// coloring removed. The mutex keeps the Go race detector quiet — the
// violation is the declared write discipline, which CheckedReducer
// catches dynamically and whose static image is the fixture's
// BrokenReducer.
type uncoloredVetReducer struct {
	list *neighbor.List
	pool *strategy.Pool
	mu   sync.Mutex
}

func (r *uncoloredVetReducer) Kind() strategy.Kind             { return strategy.SDC }
func (r *uncoloredVetReducer) Threads() int                    { return r.pool.Threads() }
func (r *uncoloredVetReducer) PairWork() int                   { return r.list.Pairs() }
func (r *uncoloredVetReducer) WriteShape() strategy.WriteShape { return strategy.WriteSharedPair }

func (r *uncoloredVetReducer) SweepScalar(out []float64, terms strategy.Terms[float64]) {
	uncoloredVetSweep(r, terms, func(i, j int32, ci, cj float64) {
		out[i] += ci
		out[j] += cj
	})
}

func (r *uncoloredVetReducer) SweepVector(out []vec.Vec3, terms strategy.Terms[vec.Vec3]) {
	uncoloredVetSweep(r, terms, func(i, j int32, ci, _ vec.Vec3) {
		out[i] = out[i].Add(ci)
		out[j] = out[j].Sub(ci)
	})
}

// uncoloredVetSweep evaluates one pair at a time and hands its two
// contributions to add, which writes both slots of the shared array.
func uncoloredVetSweep[T strategy.Elem](r *uncoloredVetReducer, terms strategy.Terms[T], add func(i, j int32, ci, cj T)) {
	r.pool.ParallelFor(r.list.N(), func(start, end, _ int) {
		var ci, cj [1]T
		for i := start; i < end; i++ {
			row := r.list.Neighbors(i)
			for k := range row {
				r.mu.Lock()
				terms(int32(i), row[k:k+1], ci[:], cj[:])
				add(int32(i), row[k], ci[0], cj[0])
				r.mu.Unlock()
			}
		}
	})
}

func (r *uncoloredVetReducer) ParallelForAtoms(body func(start, end, tid int)) {
	r.pool.ParallelFor(r.list.N(), body)
}

// TestStaticSupersetOfDynamic cross-validates the two checkers on the
// same broken reduction pattern: every conflict kind the dynamic
// CheckedReducer observes at runtime must have a static sdc-shared-
// write finding inside the corresponding Broken* sweep of the fixture,
// which re-implements the uncolored reducer statement for statement.
func TestStaticSupersetOfDynamic(t *testing.T) {
	// Dynamic side: run the uncolored reducer under CheckedReducer.
	cfg := lattice.MustBuild(lattice.BCC, 6, 6, 6, 2.8665)
	cfg.Jitter(0.08, 42)
	list, err := neighbor.Builder{Cutoff: 3.5, Skin: 0.5, Half: true}.Build(cfg.Box, cfg.Pos)
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	pool := strategy.MustNewPool(4)
	defer func() {
		// Close does not join the workers: wait for them to exit, so
		// the leak test's goroutine count is not still falling.
		pool.Close()
		for end := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before && time.Now().Before(end); {
			time.Sleep(time.Millisecond)
		}
	}()
	chk := strategy.NewCheckedReducer(&uncoloredVetReducer{list: list, pool: pool})
	chk.SweepScalar(make([]float64, list.N()), func(_ int32, _ []int32, ci, cj []float64) {
		for k := range ci {
			ci[k], cj[k] = 1, 1
		}
	})
	chk.SweepVector(make([]vec.Vec3, list.N()), func(_ int32, _ []int32, ci, _ []vec.Vec3) {
		for k := range ci {
			ci[k] = vec.Vec3{1, 0, 0}
		}
	})

	dynamicKinds := map[string]bool{}
	for _, c := range chk.Conflicts() {
		dynamicKinds[c.Kind] = true
	}
	if !dynamicKinds["scalar"] || !dynamicKinds["vector"] {
		t.Fatalf("dynamic checker missed a sweep kind: %v", dynamicKinds)
	}

	// Static side: the same pattern in fixture form must yield at least
	// one finding inside each broken sweep.
	pkgs := writeset.load(t)
	findings := lint.RunPasses(pkgs, writeset.passes())
	sweepOf := map[string]string{"scalar": "SweepScalar", "vector": "SweepVector"}
	for kind := range dynamicKinds {
		span := declSpan(t, pkgs, "badstrat/bad.go", sweepOf[kind])
		found := false
		for _, f := range findings {
			if f.Rule == "sdc-shared-write" && strings.HasSuffix(f.File, "badstrat/bad.go") &&
				f.Line >= span[0] && f.Line <= span[1] {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("dynamic %s conflict has no static counterpart in %s (static is not a superset)",
				kind, sweepOf[kind])
		}
	}
}

// TestStaticSupersetOfDynamicLeak cross-validates the goroutine-leak
// pass against an observed runtime leak: the fixture's Produce pattern
// (a sender whose channel nobody drains) demonstrably leaks a
// goroutine at runtime, and the static pass must flag its launch site.
func TestStaticSupersetOfDynamicLeak(t *testing.T) {
	// Dynamic side: reproduce the fixture pattern and observe the
	// goroutine count rise and stay risen. The one leaked goroutine is
	// intentional and parked on an unbuffered send for the rest of the
	// test binary's life.
	before := runtime.NumGoroutine()
	ch := make(chan int)
	go func() {
		for i := 0; ; i++ {
			ch <- i
		}
	}()
	leaked := false
	for i := 0; i < 100; i++ {
		if runtime.NumGoroutine() > before {
			leaked = true
			break
		}
		time.Sleep(time.Millisecond)
	}
	if !leaked {
		t.Fatal("dynamic side did not observe the leaked sender goroutine")
	}

	// Static side: the same pattern in fixture form must be flagged at
	// its go statement.
	pkgs := lifecycle.load(t)
	findings := lint.RunPasses(pkgs, lifecycle.passes())
	span := declSpan(t, pkgs, "leak/leak.go", "Produce")
	for _, f := range findings {
		if f.Rule == "goroutine-leak" && strings.HasSuffix(f.File, "leak/leak.go") &&
			f.Line >= span[0] && f.Line <= span[1] {
			return
		}
	}
	t.Errorf("dynamically observed leak pattern has no static counterpart in Produce (static is not a superset)")
}

// repoRoot is the real module root, two levels up from this package.
const repoRoot = "../.."

// TestRealRepoShutdownPathsProveClean runs the goroutine-leak pass raw
// (no //lint:ignore suppression) over the real packages whose shutdown
// paths the dynamic goroutine-count tests exercise. Zero raw findings
// here is the other half of static ⊇ dynamic: the dynamic tests find
// no leak, and the static pass independently proves every launch in
// those packages, with no suppression doing the work.
func TestRealRepoShutdownPathsProveClean(t *testing.T) {
	pkgs, err := lint.Load(repoRoot,
		[]string{"internal/strategy", "internal/telemetry", "internal/serve"})
	if err != nil {
		t.Fatal(err)
	}
	sh := &shared{}
	leak := &leakPass{sh: sh}
	for _, f := range leak.Analyze(pkgs) {
		t.Errorf("unproven goroutine launch on a dynamically-tested shutdown path: %s", f)
	}
}

// TestRepoParsedOnce pins the shared-driver contract on the real tree:
// however many packages import a file's package, the loader parses the
// file exactly once per run.
func TestRepoParsedOnce(t *testing.T) {
	seen := map[string]int{}
	pkgs, err := lint.LoadWithHook(repoRoot, []string{"./..."}, func(path string) { seen[path]++ })
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 5 {
		t.Fatalf("suspiciously few packages loaded: %d", len(pkgs))
	}
	if len(seen) == 0 {
		t.Fatal("parse hook never fired")
	}
	for path, n := range seen {
		if n != 1 {
			t.Errorf("%s parsed %d times, want exactly once", path, n)
		}
	}
}

// BenchmarkAnalyzeRepo measures the program index over the real tree —
// load+type-check once (amortized setup), then the walk, resolution and
// write-set fixpoint per iteration, which is what every sdcvet
// invocation pays on top of the shared driver load.
func BenchmarkAnalyzeRepo(b *testing.B) {
	pkgs, err := lint.Load(repoRoot, []string{"./..."})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if pr := buildProgram(pkgs); len(pr.all) == 0 {
			b.Fatal("index saw no functions")
		}
	}
}

// BenchmarkLoadAndAnalyzeRepo measures the end-to-end cost of one
// sdcvet run: parse + type-check + index.
func BenchmarkLoadAndAnalyzeRepo(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pkgs, err := lint.Load(repoRoot, []string{"./..."})
		if err != nil {
			b.Fatal(err)
		}
		buildProgram(pkgs)
	}
}
