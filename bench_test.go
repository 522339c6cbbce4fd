package sdcmd

// Benchmark harness: one benchmark family per evaluation artifact of
// the paper (see DESIGN.md §3), exercising the *real* implementations
// on a scaled bcc-Fe replica (same density as the paper's cases):
//
//   - BenchmarkTable1_*  — E1: SDC force evaluation by dimensionality
//     and thread count (Table 1's axes).
//   - BenchmarkFig9_*    — E2: one force evaluation per strategy
//     (Fig. 9's curves; thread counts as sub-benchmarks).
//   - BenchmarkReorder_* — E3: serial sweep on spatially-ordered vs
//     scrambled layouts (§II.D).
//
// On this container the wall-clock speedups are bounded by the host
// core count; the model mode of cmd/sdcbench supplies the paper-scale
// curves. Component microbenchmarks at the bottom cover the substrate
// costs (neighbor build, decomposition, potential evaluation, MD step).

import (
	"fmt"
	"testing"

	"sdcmd/internal/core"
	"sdcmd/internal/force"
	"sdcmd/internal/lattice"
	"sdcmd/internal/md"
	"sdcmd/internal/neighbor"
	"sdcmd/internal/potential"
	"sdcmd/internal/reorder"
	"sdcmd/internal/strategy"
	"sdcmd/internal/vec"
)

const (
	benchCells   = 8 // 1024 atoms: large enough to exercise every code path
	benchThreads = 4
)

// benchSystem caches the shared benchmark fixture.
type benchSystem struct {
	cfg  *lattice.Config
	pot  *potential.FeEAM
	list *neighbor.List
	eng  *force.Engine
	f    []vec.Vec3
}

func newBenchSystem(b *testing.B, cells int) *benchSystem {
	b.Helper()
	cfg := lattice.MustBuild(lattice.BCC, cells, cells, cells, lattice.FeLatticeConstant)
	cfg.Jitter(0.05, 42)
	pot := potential.DefaultFe()
	list, err := neighbor.Builder{Cutoff: pot.Cutoff(), Skin: 0.5, Half: true}.Build(cfg.Box, cfg.Pos)
	if err != nil {
		b.Fatal(err)
	}
	eng, err := force.NewEngine(pot, cfg.Box)
	if err != nil {
		b.Fatal(err)
	}
	return &benchSystem{cfg: cfg, pot: pot, list: list, eng: eng, f: make([]vec.Vec3, cfg.N())}
}

func (s *benchSystem) decompose(b *testing.B, dim core.Dim) *core.Decomposition {
	b.Helper()
	dec, err := core.Decompose(s.cfg.Box, s.cfg.Pos, dim, s.pot.Cutoff()+0.5)
	if err != nil {
		b.Skipf("replica too small for %v: %v", dim, err)
	}
	return dec
}

func (s *benchSystem) reducer(b *testing.B, k strategy.Kind, dim core.Dim, pool *strategy.Pool) strategy.Reducer {
	b.Helper()
	var dec *core.Decomposition
	if k == strategy.SDC {
		dec = s.decompose(b, dim)
	}
	red, err := strategy.New(strategy.Config{Kind: k, List: s.list, Pool: pool, Decomp: dec})
	if err != nil {
		b.Fatal(err)
	}
	return red
}

func (s *benchSystem) benchCompute(b *testing.B, red strategy.Reducer) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.eng.Compute(red, s.cfg.Pos, s.f); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(s.list.Pairs()), "pairs/op")
}

// --- E1: Table 1 ---------------------------------------------------------

func BenchmarkTable1_SDC(b *testing.B) {
	for _, dim := range []core.Dim{core.Dim1, core.Dim2, core.Dim3} {
		for _, threads := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("%v/threads=%d", dim, threads), func(b *testing.B) {
				// 1D needs a long axis: use an elongated replica so the
				// decomposition is feasible, like the paper's slabs.
				cells := benchCells
				if dim == core.Dim1 {
					cells = 12
				}
				s := newBenchSystem(b, cells)
				pool := strategy.MustNewPool(threads)
				defer pool.Close()
				red := s.reducer(b, strategy.SDC, dim, pool)
				s.benchCompute(b, red)
			})
		}
	}
}

func BenchmarkTable1_SerialBaseline(b *testing.B) {
	s := newBenchSystem(b, benchCells)
	red := s.reducer(b, strategy.Serial, core.Dim2, nil)
	s.benchCompute(b, red)
}

// --- E2: Fig. 9 ----------------------------------------------------------

func BenchmarkFig9_Strategies(b *testing.B) {
	for _, k := range []strategy.Kind{strategy.SDC, strategy.CS, strategy.AtomicCS, strategy.SAP, strategy.RC} {
		for _, threads := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("%v/threads=%d", k, threads), func(b *testing.B) {
				s := newBenchSystem(b, benchCells)
				pool := strategy.MustNewPool(threads)
				defer pool.Close()
				red := s.reducer(b, k, core.Dim2, pool)
				s.benchCompute(b, red)
			})
		}
	}
}

// --- E3: §II.D data reordering -------------------------------------------

func BenchmarkReorder(b *testing.B) {
	base := lattice.MustBuild(lattice.BCC, 12, 12, 12, lattice.FeLatticeConstant) // 3456 atoms
	base.Jitter(0.05, 7)
	pot := potential.DefaultFe()

	run := func(b *testing.B, pos []vec.Vec3) {
		list, err := neighbor.Builder{Cutoff: pot.Cutoff(), Skin: 0.5, Half: true}.Build(base.Box, pos)
		if err != nil {
			b.Fatal(err)
		}
		red, err := strategy.New(strategy.Config{Kind: strategy.Serial, List: list})
		if err != nil {
			b.Fatal(err)
		}
		eng, err := force.NewEngine(pot, base.Box)
		if err != nil {
			b.Fatal(err)
		}
		f := make([]vec.Vec3, len(pos))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := eng.Compute(red, pos, f); err != nil {
				b.Fatal(err)
			}
		}
	}

	b.Run("ordered", func(b *testing.B) {
		// Lattice order is already spatial; re-derive it through the
		// cell grid exactly as §II.D.1 prescribes.
		grid, err := neighbor.NewCellGrid(base.Box, base.Pos, pot.Cutoff()+0.5)
		if err != nil {
			b.Fatal(err)
		}
		perm := reorder.SpatialOrder(grid)
		run(b, perm.ApplyVec3(base.Pos))
	})
	b.Run("scrambled", func(b *testing.B) {
		perm := reorder.Scramble(base.N(), 99)
		run(b, perm.ApplyVec3(base.Pos))
	})
}

// --- substrate microbenchmarks --------------------------------------------

func BenchmarkNeighborBuild(b *testing.B) {
	cfg := lattice.MustBuild(lattice.BCC, benchCells, benchCells, benchCells, lattice.FeLatticeConstant)
	builder := neighbor.Builder{Cutoff: 3.5, Skin: 0.5, Half: true}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := builder.Build(cfg.Box, cfg.Pos); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecompose(b *testing.B) {
	cfg := lattice.MustBuild(lattice.BCC, 12, 12, 12, lattice.FeLatticeConstant)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.Decompose(cfg.Box, cfg.Pos, core.Dim3, 4.0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRebin(b *testing.B) {
	cfg := lattice.MustBuild(lattice.BCC, 12, 12, 12, lattice.FeLatticeConstant)
	dec, err := core.Decompose(cfg.Box, cfg.Pos, core.Dim3, 4.0)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dec.Rebin(cfg.Pos)
	}
}

func BenchmarkPotentialEval(b *testing.B) {
	b.Run("analytic", func(b *testing.B) {
		pot := potential.DefaultFe()
		r := 2.6
		for i := 0; i < b.N; i++ {
			_, _ = pot.Energy(r)
			_, _ = pot.Density(r)
			_, _ = pot.Embed(6.0)
		}
	})
}

func BenchmarkMDStep(b *testing.B) {
	cfg := lattice.MustBuild(lattice.BCC, benchCells, benchCells, benchCells, lattice.FeLatticeConstant)
	sys := md.FromLattice(cfg)
	if err := sys.InitVelocities(300, 1); err != nil {
		b.Fatal(err)
	}
	mcfg := md.DefaultConfig()
	sim, err := md.NewSimulator(sys, mcfg)
	if err != nil {
		b.Fatal(err)
	}
	defer sim.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sim.Step(1); err != nil {
			b.Fatal(err)
		}
	}
}

// --- ablation benchmarks ---------------------------------------------------
// Design-choice studies DESIGN.md calls out: the Verlet-skin trade-off
// (list rebuild frequency vs per-step pair surplus) and half- vs
// full-list sweeps (the §II.D symmetry optimizations).

func BenchmarkAblation_Skin(b *testing.B) {
	for _, skin := range []float64{0, 0.3, 0.6, 1.0} {
		b.Run(fmt.Sprintf("skin=%.1f", skin), func(b *testing.B) {
			cfg := lattice.MustBuild(lattice.BCC, benchCells, benchCells, benchCells, lattice.FeLatticeConstant)
			sys := md.FromLattice(cfg)
			if err := sys.InitVelocities(300, 1); err != nil {
				b.Fatal(err)
			}
			mcfg := md.DefaultConfig()
			mcfg.Skin = skin
			sim, err := md.NewSimulator(sys, mcfg)
			if err != nil {
				b.Fatal(err)
			}
			defer sim.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := sim.Step(1); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(sim.Rebuilds())/float64(b.N), "rebuilds/step")
		})
	}
}

func BenchmarkAblation_HalfVsFullList(b *testing.B) {
	// The §II.D optimizations amount to half-list sweeps: the full-list
	// (RC-style, serial) sweep does every pair twice.
	s := newBenchSystem(b, benchCells)
	b.Run("half", func(b *testing.B) {
		red := s.reducer(b, strategy.Serial, core.Dim2, nil)
		s.benchCompute(b, red)
	})
	b.Run("full", func(b *testing.B) {
		pool := strategy.MustNewPool(1)
		defer pool.Close()
		red := s.reducer(b, strategy.RC, core.Dim2, pool)
		s.benchCompute(b, red)
	})
}

func BenchmarkAblation_Cutoff(b *testing.B) {
	// Pair count (and thus EAM cost) scales ~rc³; the paper's choice of
	// rc governs both accuracy and the work the strategies divide.
	for _, rc := range []float64{2.6, 3.5, 4.5} {
		b.Run(fmt.Sprintf("rc=%.1f", rc), func(b *testing.B) {
			cfg := lattice.MustBuild(lattice.BCC, benchCells, benchCells, benchCells, lattice.FeLatticeConstant)
			cfg.Jitter(0.05, 42)
			p := potential.DefaultFeParams()
			p.Cut = rc
			p.SmoothOn = rc * 0.86
			pot, err := potential.NewFeEAM(p)
			if err != nil {
				b.Fatal(err)
			}
			list, err := neighbor.Builder{Cutoff: rc, Skin: 0.5, Half: true}.Build(cfg.Box, cfg.Pos)
			if err != nil {
				b.Fatal(err)
			}
			red, err := strategy.New(strategy.Config{Kind: strategy.Serial, List: list})
			if err != nil {
				b.Fatal(err)
			}
			eng, err := force.NewEngine(pot, cfg.Box)
			if err != nil {
				b.Fatal(err)
			}
			f := make([]vec.Vec3, cfg.N())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Compute(red, cfg.Pos, f); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(list.Pairs())/float64(cfg.N()), "pairs/atom")
		})
	}
}
