// Random-alloy energetics with the multi-species EAM engine: mix a
// bcc lattice from "Fe" and a chromium-like partner at several
// concentrations and compute the (unrelaxed) mixing energy
//
//	ΔE_mix(x) = E(Fe₁₋ₓCrₓ) − (1−x)·E(Fe) − x·E(Cr)
//
// per atom, using the same SDC-parallelized sweeps as the pure-metal
// engine (the coloring argument is species-blind).
//
//	go run ./examples/alloy
package main

import (
	"fmt"
	"log"
	"math/rand"

	"sdcmd/internal/core"
	"sdcmd/internal/force"
	"sdcmd/internal/lattice"
	"sdcmd/internal/neighbor"
	"sdcmd/internal/potential"
	"sdcmd/internal/strategy"
)

func energyPerAtom(al *potential.BinaryAlloy, cfg *lattice.Config, species []int32,
	red strategy.Reducer) float64 {
	eng, err := force.NewAlloyEngine(al, cfg.Box, species)
	if err != nil {
		log.Fatal(err)
	}
	total, _, _, err := eng.PotentialEnergy(red, cfg.Pos)
	if err != nil {
		log.Fatal(err)
	}
	return total / float64(cfg.N())
}

func main() {
	const cells = 8
	cfg := lattice.MustBuild(lattice.BCC, cells, cells, cells, lattice.FeLatticeConstant)
	al := potential.DefaultFeCr()

	list, err := neighbor.Builder{Cutoff: al.Cutoff(), Skin: 0.5, Half: true}.Build(cfg.Box, cfg.Pos)
	if err != nil {
		log.Fatal(err)
	}
	dec, err := core.Decompose(cfg.Box, cfg.Pos, core.Dim2, al.Cutoff()+0.5)
	if err != nil {
		log.Fatal(err)
	}
	pool := strategy.MustNewPool(4)
	defer pool.Close()
	red, err := strategy.New(strategy.Config{Kind: strategy.SDC, List: list, Pool: pool, Decomp: dec})
	if err != nil {
		log.Fatal(err)
	}

	pureFe := energyPerAtom(al, cfg, make([]int32, cfg.N()), red)
	allCr := make([]int32, cfg.N())
	for i := range allCr {
		allCr[i] = 1
	}
	pureCr := energyPerAtom(al, cfg, allCr, red)
	fmt.Printf("alloy engine (%s) on %d bcc sites, SDC ×4 workers\n\n", al.Name(), cfg.N())
	fmt.Printf("pure Fe: %.4f eV/atom, pure Cr-like: %.4f eV/atom\n\n", pureFe, pureCr)

	fmt.Printf("%8s %16s %18s\n", "x(Cr)", "E/atom (eV)", "ΔE_mix (meV/atom)")
	rng := rand.New(rand.NewSource(99))
	for _, x := range []float64{0.1, 0.25, 0.5, 0.75, 0.9} {
		species := make([]int32, cfg.N())
		for i := range species {
			if rng.Float64() < x {
				species[i] = 1
			}
		}
		e := energyPerAtom(al, cfg, species, red)
		mix := e - (1-x)*pureFe - x*pureCr
		fmt.Printf("%8.2f %16.4f %18.2f\n", x, e, mix*1000)
	}
	fmt.Println("\nThe random alloy sits a few meV/atom above the linear interpolation")
	fmt.Println("of the pure phases: a small positive mixing energy, i.e. a mild")
	fmt.Println("demixing tendency — qualitatively like real Fe-Cr at high Cr")
	fmt.Println("content. A fitted potential would reproduce the full asymmetric")
	fmt.Println("miscibility curve.")
}
