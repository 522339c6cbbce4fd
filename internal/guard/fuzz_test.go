package guard

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"

	"sdcmd/internal/core"
	"sdcmd/internal/lattice"
	"sdcmd/internal/md"
	"sdcmd/internal/strategy"
)

// FuzzResumeBitForBit checkpoints a run at a generated step k and
// continues it to a later step, then resumes a second run from that
// checkpoint to the same step: both must end with the same checkpoint
// bytes. Inputs: 4–6 cells, the velocity seed, a temperature up to
// 1500 K, CheckEvery 1–20, k 1–40 and 1–30 further steps; the strategy
// is serial, or on the 6-cell box (the smallest that 2D SDC splits)
// 2-worker SDC with or without BlockReorder.
func FuzzResumeBitForBit(f *testing.F) {
	// k on a CheckEvery boundary, serial.
	f.Add(uint8(0), int64(7), 300.0, uint8(5), uint8(10), uint8(15), uint8(0))
	// k off one, 2-worker SDC.
	f.Add(uint8(2), int64(3), 600.0, uint8(4), uint8(7), uint8(13), uint8(1))
	// k on the step whose drift pass rebuilds the list (step 15 of this
	// 1500 K crystal), 2-worker SDC with BlockReorder.
	f.Add(uint8(2), int64(7), 1500.0, uint8(6), uint8(15), uint8(20), uint8(2))
	f.Fuzz(func(t *testing.T, cells uint8, seed int64, temp float64, checkEvery, k, more, strat uint8) {
		n := 4 + int(cells%3)
		if !(temp >= 0 && temp <= 1500) {
			temp = math.Mod(math.Abs(temp), 1500)
			if math.IsNaN(temp) {
				temp = 300
			}
		}
		at := max(1, int(k%41))
		total := at + max(1, int(more%31))
		cfg := md.DefaultConfig()
		if n == 6 && strat%3 != 0 {
			cfg.Strategy, cfg.Threads, cfg.Dim = strategy.SDC, 2, core.Dim2
			cfg.BlockReorder = strat%3 == 2
		}
		lat := lattice.MustBuild(lattice.BCC, n, n, n, lattice.FeLatticeConstant)
		sys := md.FromLattice(lat)
		if err := sys.InitVelocities(temp, seed); err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		cont, resumed := filepath.Join(dir, "cont.sdck"), filepath.Join(dir, "resumed.sdck")
		every := max(1, int(checkEvery%21))
		pol := func(path string) Policy { return Policy{CheckEvery: every, CheckpointPath: path} }

		a, err := New(sys, cfg, pol(cont))
		if err != nil {
			t.Fatal(err)
		}
		defer a.Close()
		if err := a.Run(at); err != nil {
			t.Fatal(err)
		}
		if err := a.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		ckpt, err := os.ReadFile(cont)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(resumed, ckpt, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := a.Run(total - at); err != nil {
			t.Fatal(err)
		}
		if err := a.Checkpoint(); err != nil {
			t.Fatal(err)
		}

		b, err := Resume(resumed, cfg, pol(resumed))
		if err != nil {
			t.Fatal(err)
		}
		defer b.Close()
		if err := b.Run(total - at); err != nil {
			t.Fatal(err)
		}
		if err := b.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if a.Retries() != 0 || b.Retries() != 0 {
			t.Fatalf("a clean run rolled back: %d and %d retries", a.Retries(), b.Retries())
		}

		want, err := os.ReadFile(cont)
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(resumed)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%d cells, %v, block reorder %v, check every %d, checkpoint at step %d: the run resumed to step %d left the continued run's trajectory",
				n, cfg.Strategy, cfg.BlockReorder, every, at, total)
		}
	})
}
