package harness

import (
	"io"

	"sdcmd/internal/core"
	"sdcmd/internal/lattice"
	"sdcmd/internal/perfmodel"
	"sdcmd/internal/strategy"
)

// NUMA is the future-work study of §V: predicted SDC speedups on the
// 4-socket testbed under naive vs NUMA-aware data placement. It is a
// model-only experiment (the paper itself leaves the measurement to
// future work; this container has a single core).
type NUMA struct {
	Threads []int
	Case    lattice.Case
	// Naive/Aware/Ideal are the speedup curves; Improvement is the
	// predicted relative runtime gain of aware over naive placement.
	Naive, Aware, Ideal []float64
	Improvement         []float64
	Topology            perfmodel.Topology
}

// RunNUMA executes the study on the given case (default large (3)).
func RunNUMA(opts Options) (*NUMA, error) {
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
	topo := perfmodel.XeonE7320Topology()
	n := &NUMA{Threads: opts.Threads, Case: c, Topology: topo}
	for _, p := range opts.Threads {
		naive, err := opts.Machine.SpeedupNUMA(strategy.SDC, core.Dim2, p, in, topo, perfmodel.NaivePlacement)
		if err != nil {
			return nil, err
		}
		aware, err := opts.Machine.SpeedupNUMA(strategy.SDC, core.Dim2, p, in, topo, perfmodel.NUMAAwarePlacement)
		if err != nil {
			return nil, err
		}
		ideal, err := opts.Machine.Speedup(strategy.SDC, core.Dim2, p, in)
		if err != nil {
			return nil, err
		}
		imp, err := opts.Machine.NUMAImprovement(strategy.SDC, core.Dim2, p, in, topo)
		if err != nil {
			return nil, err
		}
		n.Naive = append(n.Naive, naive)
		n.Aware = append(n.Aware, aware)
		n.Ideal = append(n.Ideal, ideal)
		n.Improvement = append(n.Improvement, imp)
	}
	return n, nil
}

// Render prints the study.
func (n *NUMA) Render(w io.Writer) error {
	p := &printer{w: w}
	p.printf("NUMA study (§V future work) — SDC 2D on %s, %d sockets × %d cores, remote penalty %.0f%%\n",
		n.Case, n.Topology.Sockets, n.Topology.CoresPerSocket, n.Topology.RemotePenalty*100)
	p.printf("  %-22s", "threads:")
	for _, th := range n.Threads {
		p.printf(" %6d", th)
	}
	p.println()
	row := func(name string, vals []float64) {
		p.printf("  %-22s", name)
		for _, v := range vals {
			p.printf(" %6.2f", v)
		}
		p.println()
	}
	row("naive placement", n.Naive)
	row("NUMA-aware placement", n.Aware)
	row("no NUMA penalty", n.Ideal)
	p.printf("  %-22s", "aware gain (%)")
	for _, v := range n.Improvement {
		p.printf(" %6.1f", v*100)
	}
	p.println()
	return p.Err()
}
