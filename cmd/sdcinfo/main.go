// Command sdcinfo inspects a Spatial Decomposition Coloring layout for
// a given cubic box and interaction reach without running a simulation:
// subdomain counts, colors, per-color parallelism, edge lengths, and
// the feasibility verdict per dimensionality — the quantities that
// decide the paper's Table 1 blanks.
//
//	sdcinfo -edge 146.19 -reach 4.0
//	sdcinfo -case medium -reach 4.0 -threads 16
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"sdcmd/internal/box"
	"sdcmd/internal/core"
	"sdcmd/internal/lattice"
	"sdcmd/internal/vec"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		_, _ = fmt.Fprintln(os.Stderr, "sdcinfo:", err)
		os.Exit(1)
	}
}

func caseByName(name string) (lattice.Case, error) {
	switch strings.ToLower(name) {
	case "small":
		return lattice.Small, nil
	case "medium":
		return lattice.Medium, nil
	case "large3", "large":
		return lattice.Large3, nil
	case "large4":
		return lattice.Large4, nil
	}
	return 0, fmt.Errorf("unknown case %q (want small|medium|large3|large4)", name)
}

func run(args []string) error {
	fs := flag.NewFlagSet("sdcinfo", flag.ContinueOnError)
	edge := fs.Float64("edge", 0, "cubic box edge (Å); overrides -case")
	caseName := fs.String("case", "", "paper case: small|medium|large3|large4")
	reach := fs.Float64("reach", 4.0, "interaction reach rc+skin (Å)")
	threads := fs.Int("threads", 16, "thread count for the feasibility verdict")
	if err := fs.Parse(args); err != nil {
		return err
	}

	e := *edge
	atoms := 0
	if e == 0 {
		if *caseName == "" {
			return fmt.Errorf("need -edge or -case")
		}
		c, err := caseByName(*caseName)
		if err != nil {
			return err
		}
		e = float64(c.CellsPerSide()) * lattice.FeLatticeConstant
		atoms = c.Atoms()
	}
	bx, err := box.New(vec.Zero, vec.Splat(e))
	if err != nil {
		return err
	}
	fmt.Printf("box edge %.4g Å, reach %.4g Å", e, *reach)
	if atoms > 0 {
		fmt.Printf(", %d atoms", atoms)
	}
	fmt.Println()

	for _, dim := range []core.Dim{core.Dim1, core.Dim2, core.Dim3} {
		dec, err := core.Decompose(bx, nil, dim, *reach)
		if errors.Is(err, core.ErrTooFewSubdomains) || errors.Is(err, core.ErrTooManyCells) {
			fmt.Printf("  %v: infeasible (%v)\n", dim, err)
			continue
		}
		if err != nil {
			return err
		}
		edges := dec.EdgeLengths()
		verdict := "OK"
		if dec.SubdomainsPerColor() <= *threads {
			verdict = fmt.Sprintf("INSUFFICIENT for %d threads (Table 1 blank)", *threads)
		}
		fmt.Printf("  %v: %d×%d×%d subdomains, %d colors, %d per color, edges (%.3g, %.3g, %.3g) Å — %s\n",
			dim, dec.Counts[0], dec.Counts[1], dec.Counts[2],
			dec.NumColors(), dec.SubdomainsPerColor(),
			edges[0], edges[1], edges[2], verdict)
	}
	return nil
}
