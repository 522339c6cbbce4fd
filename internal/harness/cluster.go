package harness

import (
	"fmt"
	"io"

	"sdcmd/internal/lattice"
	"sdcmd/internal/perfmodel"
)

// Cluster is the second §V future-work study: predicted speedups of
// the hybrid MPI+SDC engine for every ranks×threads factorization of a
// fixed core budget, on two interconnect generations. It answers the
// question the paper poses ("it will be promising to implement SDC
// method using mixed programming models … in multi-core cluster"):
// on which fabric, and at which mix, hybrid beats pure threading.
type Cluster struct {
	Case       lattice.Case
	TotalCores int
	// Fabrics holds one sweep per interconnect.
	Fabrics []ClusterFabric
}

// ClusterFabric is one interconnect's sweep.
type ClusterFabric struct {
	Interconnect perfmodel.Interconnect
	Points       []perfmodel.HybridPoint
	BestIndex    int
}

// RunCluster executes the study (model-only; this container has one
// core and no cluster). Core budget: 64 by default — four 16-core
// testbed nodes.
func RunCluster(opts Options) (*Cluster, error) {
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return nil, err
	}
	c := lattice.Large3
	if len(opts.Cases) == 1 {
		c = opts.Cases[0]
	}
	_, cutoff, skin := reach()
	ppa, err := perfmodel.MeasurePairsPerAtom(8, cutoff, skin)
	if err != nil {
		return nil, err
	}
	in, err := perfmodel.InputForCase(c, ppa)
	if err != nil {
		return nil, err
	}
	res := &Cluster{Case: c, TotalCores: 64}
	for _, ic := range []perfmodel.Interconnect{perfmodel.InfiniBandDDR(), perfmodel.GigabitEthernet()} {
		pts, best, err := opts.Machine.BestHybridMix(res.TotalCores, in, ic)
		if err != nil {
			return nil, err
		}
		res.Fabrics = append(res.Fabrics, ClusterFabric{Interconnect: ic, Points: pts, BestIndex: best})
	}
	return res, nil
}

// Render prints the sweeps.
func (c *Cluster) Render(w io.Writer) error {
	p := &printer{w: w}
	p.printf("CLUSTER study (§V future work) — hybrid MPI+SDC on %s, %d total cores\n",
		c.Case, c.TotalCores)
	for _, fab := range c.Fabrics {
		p.printf("\n  fabric: %s\n", fab.Interconnect.Name)
		p.printf("  %10s %10s %10s %10s\n", "ranks", "threads", "speedup", "comm %")
		for i, pt := range fab.Points {
			mark := ""
			if i == fab.BestIndex {
				mark = "  <- best mix"
			}
			p.printf("  %10d %10d %10.2f %9.1f%%%s\n",
				pt.Ranks, pt.ThreadsPerRank, pt.Speedup, pt.CommFraction*100, mark)
		}
	}
	p.println("\nReading: on a fast fabric many small ranks win (each node's SDC")
	p.println("sweep stays in cache and barriers stay cheap); on commodity")
	p.println("Ethernet the per-message latency pushes the optimum toward fewer,")
	p.println("fatter ranks — the trade-off the paper's §V anticipates.")
	return p.Err()
}

// WriteCSV emits the sweeps in long form.
func (c *Cluster) WriteCSV(w io.Writer) error {
	_, err := fmt.Fprintln(w, "experiment,case,fabric,ranks,threads,speedup,comm_fraction")
	if err != nil {
		return err
	}
	for _, fab := range c.Fabrics {
		for _, pt := range fab.Points {
			if _, err := fmt.Fprintf(w, "cluster,%s,%s,%d,%d,%.4f,%.4f\n",
				c.Case, fab.Interconnect.Name, pt.Ranks, pt.ThreadsPerRank, pt.Speedup, pt.CommFraction); err != nil {
				return err
			}
		}
	}
	return nil
}
