// Energy-conservation study: an NVE run measuring total-energy drift
// versus timestep — the standard validation of a force field +
// integrator pair, and the reason the potentials carry the C¹ smooth
// cutoff (§II discussion in DESIGN.md). Also demonstrates the
// checkpoint round trip: the run is checkpointed and continued, a
// second run resumes from the checkpoint, and the resumed run must
// track the continued one bit for bit.
//
//	go run ./examples/energycons
package main

import (
	"fmt"
	"log"
	"math"
	"os"
	"path/filepath"

	"sdcmd"
)

func driftForDt(dt float64) float64 {
	sim, err := sdcmd.NewSimulation(sdcmd.SimOptions{
		Cells:       6,
		Temperature: 300,
		Dt:          dt,
		Seed:        3,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer sim.Close()
	e0 := sim.TotalEnergy()
	if err := sim.Run(200); err != nil {
		log.Fatal(err)
	}
	return math.Abs(sim.TotalEnergy()-e0) / math.Abs(e0)
}

func main() {
	fmt.Println("NVE energy drift over 200 steps, 432 bcc-Fe atoms at 300 K")
	fmt.Printf("%12s %16s\n", "dt (ps)", "|ΔE/E|")
	for _, dt := range []float64{5e-4, 1e-3, 2e-3, 4e-3} {
		fmt.Printf("%12.4g %16.3g\n", dt, driftForDt(dt))
	}
	fmt.Println("\nDrift grows ~dt² (velocity-Verlet is second order); at the paper's")
	fmt.Printf("own Δt = %g ps the integration error is negligible.\n\n", sdcmd.PaperTimestep)

	dir, err := os.MkdirTemp("", "energycons")
	if err != nil {
		log.Fatal(err)
	}
	err = checkpointDemo(filepath.Join(dir, "state.sdck"))
	_ = os.RemoveAll(dir)
	if err != nil {
		log.Fatal(err)
	}
}

// checkpointDemo runs 50 steps, checkpoints to path and continues 50
// more, then resumes a second run from the checkpoint to the same step
// 100: the two runs must end with the same total-energy bits.
func checkpointDemo(path string) error {
	fmt.Println("checkpoint demo: run 50 steps, checkpoint, continue to step 100 vs resume to step 100")
	opts := sdcmd.SimOptions{Cells: 5, Temperature: 200, Seed: 4, CheckpointPath: path}
	cont, err := sdcmd.NewSimulation(opts)
	if err != nil {
		return err
	}
	defer cont.Close()
	if err := cont.Run(50); err != nil {
		return err
	}
	if err := cont.Checkpoint(); err != nil {
		return err
	}
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	fmt.Printf("  at step  50: E = %.6f eV (checkpoint: %d bytes)\n", cont.TotalEnergy(), fi.Size())
	if err := cont.Run(50); err != nil {
		return err
	}

	resumed, err := sdcmd.ResumeSimulation(opts)
	if err != nil {
		return err
	}
	defer resumed.Close()
	if err := resumed.Run(100 - resumed.StepCount()); err != nil {
		return err
	}
	ec, er := cont.TotalEnergy(), resumed.TotalEnergy()
	fmt.Printf("  at step %d: continued E = %.6f eV (bits %016x)\n", cont.StepCount(), ec, math.Float64bits(ec))
	fmt.Printf("  at step %d: resumed   E = %.6f eV (bits %016x)\n", resumed.StepCount(), er, math.Float64bits(er))
	if math.Float64bits(ec) != math.Float64bits(er) {
		return fmt.Errorf("the resumed run left the continued run's trajectory")
	}
	fmt.Println("  (use cmd/mdrun -checkpoint and -resume for restart files from the CLI)")
	return nil
}
