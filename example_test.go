package sdcmd_test

import (
	"fmt"
	"log"

	"sdcmd"
)

// ExampleNewSimulation shows the minimal library workflow: build a
// bcc-iron system, advance it, read a diagnostic.
func ExampleNewSimulation() {
	sim, err := sdcmd.NewSimulation(sdcmd.SimOptions{
		Cells:       6, // 2·6³ = 432 atoms
		Temperature: 300,
		Strategy:    "sdc",
		Threads:     2,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer sim.Close()
	if err := sim.Run(10); err != nil {
		log.Fatal(err)
	}
	fmt.Println(sim.N(), "atoms,", sim.StepCount(), "steps")
	// Output: 432 atoms, 10 steps
}

// ExampleStrategies lists the reduction strategies the library ships.
func ExampleStrategies() {
	for _, s := range sdcmd.Strategies() {
		fmt.Println(s)
	}
	// Output:
	// serial
	// sdc
	// cs
	// atomic
	// sap
	// rc
}
