// Strategy comparison: run the same EAM force evaluation under every
// reduction strategy, verify they all agree with the serial loops to
// floating-point tolerance (the paper's correctness requirement for a
// valid parallelization), and report per-strategy timing and memory
// overheads on this host.
//
//	go run ./examples/strategies
package main

import (
	"fmt"
	"log"
	"time"

	"sdcmd/internal/core"
	"sdcmd/internal/force"
	"sdcmd/internal/lattice"
	"sdcmd/internal/neighbor"
	"sdcmd/internal/potential"
	"sdcmd/internal/strategy"
	"sdcmd/internal/vec"
)

func main() {
	const cells = 10 // 2000 atoms
	const threads = 4

	cfg := lattice.MustBuild(lattice.BCC, cells, cells, cells, lattice.FeLatticeConstant)
	cfg.Jitter(0.05, 7)
	pot := potential.DefaultFe()
	list, err := neighbor.Builder{Cutoff: pot.Cutoff(), Skin: 0.5, Half: true}.Build(cfg.Box, cfg.Pos)
	if err != nil {
		log.Fatal(err)
	}
	dec, err := core.Decompose(cfg.Box, cfg.Pos, core.Dim2, pot.Cutoff()+0.5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("system: %d atoms, %d half-list pairs, %v\n\n", cfg.N(), list.Pairs(), dec)

	eng, err := force.NewEngine(pot, cfg.Box)
	if err != nil {
		log.Fatal(err)
	}
	pool := strategy.MustNewPool(threads)
	defer pool.Close()

	// Serial reference.
	serialRed, err := strategy.New(strategy.Config{Kind: strategy.Serial, List: list})
	if err != nil {
		log.Fatal(err)
	}
	ref := make([]vec.Vec3, cfg.N())
	serialStart := time.Now()
	if _, err := eng.Compute(serialRed, cfg.Pos, ref); err != nil {
		log.Fatal(err)
	}
	serialTime := time.Since(serialStart)

	fmt.Printf("%-8s %12s %10s %14s %s\n", "strategy", "time", "vs serial", "max |ΔF| (eV/Å)", "notes")
	fmt.Printf("%-8s %12v %10s %14s %s\n", "serial", serialTime, "1.00x", "0", "reference (Figs. 1/2 loops)")

	for _, k := range []strategy.Kind{strategy.SDC, strategy.CS, strategy.AtomicCS, strategy.SAP, strategy.RC} {
		red, err := strategy.New(strategy.Config{Kind: k, List: list, Pool: pool, Decomp: dec})
		if err != nil {
			log.Fatal(err)
		}
		f := make([]vec.Vec3, cfg.N())
		start := time.Now()
		if _, err := eng.Compute(red, cfg.Pos, f); err != nil {
			log.Fatal(err)
		}
		elapsed := time.Since(start)
		worst := 0.0
		for i := range f {
			if d := f[i].Sub(ref[i]).Norm(); d > worst {
				worst = d
			}
		}
		note := map[strategy.Kind]string{
			strategy.SDC:      "color sweeps, barrier-only sync",
			strategy.CS:       "one mutex per shared update",
			strategy.AtomicCS: "CAS loop per float64 update",
			strategy.SAP:      fmt.Sprintf("private copies (×%d memory)", threads),
			strategy.RC:       fmt.Sprintf("full list, %d pair visits (2×)", red.PairWork()),
		}[k]
		fmt.Printf("%-8s %12v %9.2fx %14.3g %s\n",
			k, elapsed, float64(serialTime)/float64(elapsed), worst, note)
		if worst > 1e-9 {
			log.Fatalf("%v: forces diverged from serial by %g", k, worst)
		}
	}
	fmt.Println("\nAll strategies reproduce the serial forces exactly (within float")
	fmt.Println("summation-order noise). On a machine with more cores than this one,")
	fmt.Println("the timing column separates the strategies the way the paper's")
	fmt.Println("Fig. 9 does; 'sdcbench -experiment fig9' reproduces that figure.")
}
