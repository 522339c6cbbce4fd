// Micro-deformation of pure iron — the paper's workload (§III.B: the
// test cases "were designed to observe micro-deformation behaviors of
// the pure Fe metals material"). The crystal is equilibrated with a
// thermostat, then stretched along x in small strain increments; after
// each increment the potential energy and its rise per atom are
// reported, tracing the elastic response of the lattice.
//
//	go run ./examples/microdeform
package main

import (
	"fmt"
	"log"

	"sdcmd"
)

func main() {
	sim, err := sdcmd.NewSimulation(sdcmd.SimOptions{
		Cells:            8,
		Temperature:      50, // cold: elastic response dominates
		Strategy:         "sdc",
		Threads:          4,
		ThermostatTarget: 50,
		ThermostatTau:    0.005,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer sim.Close()

	fmt.Printf("micro-deformation: %d bcc-Fe atoms\n", sim.N())
	fmt.Println("equilibrating 100 steps at 50 K ...")
	if err := sim.Run(100); err != nil {
		log.Fatal(err)
	}
	e0 := sim.PotentialEnergy()
	fmt.Printf("relaxed PE: %.4f eV (%.6f eV/atom)\n\n", e0, e0/float64(sim.N()))

	fmt.Printf("%10s %16s %18s\n", "strain", "PE (eV)", "ΔPE/atom (meV)")
	const dEps = 0.002 // 0.2 % uniaxial strain per increment
	total := 0.0
	for step := 0; step < 8; step++ {
		if err := sim.ApplyStrain(dEps, 0, 0); err != nil {
			log.Fatal(err)
		}
		total += dEps
		// Let the lattice respond briefly under the thermostat.
		if err := sim.Run(20); err != nil {
			log.Fatal(err)
		}
		pe := sim.PotentialEnergy()
		fmt.Printf("%9.2f%% %16.4f %18.3f\n",
			total*100, pe, (pe-e0)/float64(sim.N())*1000)
	}
	fmt.Println("\nThe quadratic growth of ΔPE with strain is the harmonic elastic")
	fmt.Println("regime of the EAM crystal; the curvature is set by the effective")
	fmt.Println("elastic constant of the Fe parameterization.")
}
