package vet

import (
	"flag"
	"go/ast"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"sdcmd/internal/lattice"
	"sdcmd/internal/lint"
	"sdcmd/internal/neighbor"
	"sdcmd/internal/strategy"
	"sdcmd/internal/vec"
)

var update = flag.Bool("update", false, "rewrite golden files")

func loadFixture(t testing.TB) []*lint.Package {
	t.Helper()
	pkgs, err := lint.Load(filepath.Join("testdata", "src"), []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) == 0 {
		t.Fatal("fixture loaded no packages")
	}
	return pkgs
}

func fixtureFindings(t testing.TB) []lint.Finding {
	t.Helper()
	return lint.RunPasses(loadFixture(t), Passes())
}

// TestGoldenFixture pins every finding — rule, file, line, column and
// message — over the broken fixture module.
func TestGoldenFixture(t *testing.T) {
	var sb strings.Builder
	for _, f := range fixtureFindings(t) {
		sb.WriteString(f.String())
		sb.WriteString("\n")
	}
	got := sb.String()
	golden := filepath.Join("testdata", "golden", "findings.txt")
	if *update {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("findings diverge from golden (run with -update to regenerate)\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestSafePatternsProve asserts the analyzer proves every confinement
// idiom in safe.go: block indices, tid slots, privatized buffers,
// local scratch, strided indices.
func TestSafePatternsProve(t *testing.T) {
	for _, f := range fixtureFindings(t) {
		if strings.HasSuffix(f.File, "safe.go") {
			t.Errorf("false positive on safe pattern: %s", f)
		}
	}
}

// TestApprovedPathSkipped asserts the strategy fixture's uncolorable
// scatter (good.go writes out[j] too) is exempt via ApprovedPaths.
func TestApprovedPathSkipped(t *testing.T) {
	for _, f := range fixtureFindings(t) {
		if strings.HasPrefix(f.File, "internal/strategy/") {
			t.Errorf("approved path was not skipped: %s", f)
		}
	}
}

// TestHotLoopNegativeControl asserts the unreachable coldAlloc is not
// flagged: hotness comes from the call graph, not from syntax.
func TestHotLoopNegativeControl(t *testing.T) {
	for _, f := range fixtureFindings(t) {
		if f.Rule == "hot-loop" && f.Line >= coldAllocSpan(t)[0] && f.Line <= coldAllocSpan(t)[1] &&
			strings.HasSuffix(f.File, "kernel.go") {
			t.Errorf("unreachable coldAlloc flagged: %s", f)
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

func coldAllocSpan(t testing.TB) [2]int {
	return declSpan(t, loadFixture(t), "kernel.go", "coldAlloc")
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
	pool := strategy.MustNewPool(4)
	defer pool.Close()
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
	pkgs := loadFixture(t)
	findings := lint.RunPasses(pkgs, Passes())
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
