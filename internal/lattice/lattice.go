// Package lattice builds the crystalline initial configurations used by
// the paper's experiments: pure bcc iron replicas of four sizes
// (54 000, 265 302, 1 062 882 and 3 456 000 atoms, §III.B), plus the fcc
// and simple-cubic builders any general MD library needs.
package lattice

import (
	"fmt"
	"math/rand"

	"sdcmd/internal/box"
	"sdcmd/internal/vec"
)

// Kind selects the Bravais lattice of a build.
type Kind int

// Supported lattices.
const (
	SC  Kind = iota // simple cubic, 1 atom/cell
	BCC             // body-centered cubic, 2 atoms/cell
	FCC             // face-centered cubic, 4 atoms/cell
)

// String returns the conventional abbreviation.
func (k Kind) String() string {
	switch k {
	case SC:
		return "sc"
	case BCC:
		return "bcc"
	case FCC:
		return "fcc"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// AtomsPerCell returns the number of basis atoms in the conventional
// cubic cell.
func (k Kind) AtomsPerCell() int {
	switch k {
	case SC:
		return 1
	case BCC:
		return 2
	case FCC:
		return 4
	}
	return 0
}

// basis returns the fractional basis of the conventional cell.
func (k Kind) basis() []vec.Vec3 {
	switch k {
	case SC:
		return []vec.Vec3{{0, 0, 0}}
	case BCC:
		return []vec.Vec3{{0, 0, 0}, {0.5, 0.5, 0.5}}
	case FCC:
		return []vec.Vec3{{0, 0, 0}, {0.5, 0.5, 0}, {0.5, 0, 0.5}, {0, 0.5, 0.5}}
	}
	return nil
}

// FeLatticeConstant is the bcc iron lattice constant in Å, the material
// of all four of the paper's test cases.
const FeLatticeConstant = 2.8665

// Config is a built crystal: the periodic cell and the atom positions
// inside it.
type Config struct {
	Box box.Box
	Pos []vec.Vec3
}

// N returns the number of atoms.
func (c *Config) N() int { return len(c.Pos) }

// Clone returns a deep copy (positions are copied).
func (c *Config) Clone() *Config {
	pos := make([]vec.Vec3, len(c.Pos))
	copy(pos, c.Pos)
	return &Config{Box: c.Box, Pos: pos}
}

// Build replicates the conventional cell of kind k nx×ny×nz times with
// lattice constant a0 and returns the configuration in a fully periodic
// box [0, n*a0)³. It returns an error for non-positive counts or a0.
func Build(k Kind, nx, ny, nz int, a0 float64) (*Config, error) {
	if nx <= 0 || ny <= 0 || nz <= 0 {
		return nil, fmt.Errorf("lattice: cell counts must be positive, got %d×%d×%d", nx, ny, nz)
	}
	if a0 <= 0 {
		return nil, fmt.Errorf("lattice: lattice constant must be positive, got %g", a0)
	}
	basis := k.basis()
	if basis == nil {
		return nil, fmt.Errorf("lattice: unknown kind %v", k)
	}
	b, err := box.New(vec.Zero, vec.New(float64(nx)*a0, float64(ny)*a0, float64(nz)*a0))
	if err != nil {
		return nil, err
	}
	pos := make([]vec.Vec3, 0, nx*ny*nz*len(basis))
	for ix := 0; ix < nx; ix++ {
		for iy := 0; iy < ny; iy++ {
			for iz := 0; iz < nz; iz++ {
				origin := vec.New(float64(ix)*a0, float64(iy)*a0, float64(iz)*a0)
				for _, fb := range basis {
					pos = append(pos, origin.Add(fb.Scale(a0)))
				}
			}
		}
	}
	return &Config{Box: b, Pos: pos}, nil
}

// MustBuild is Build but panics on error; for fixed-size test systems.
func MustBuild(k Kind, nx, ny, nz int, a0 float64) *Config {
	c, err := Build(k, nx, ny, nz, a0)
	if err != nil {
		panic(err)
	}
	return c
}

// Jitter displaces every atom by a uniform random vector in
// [-amp, amp]³ and re-wraps into the cell. Deterministic for a given
// seed. Breaking perfect lattice symmetry this way gives non-zero forces
// without waiting for thermal motion.
func (c *Config) Jitter(amp float64, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for i := range c.Pos {
		d := vec.New(
			(2*rng.Float64()-1)*amp,
			(2*rng.Float64()-1)*amp,
			(2*rng.Float64()-1)*amp,
		)
		c.Pos[i] = c.Box.Wrap(c.Pos[i].Add(d))
	}
}

// Case identifies one of the paper's four test systems (§III.B).
type Case int

// The paper's test cases. Sizes are bcc replicas: 2·n³ atoms.
const (
	Small  Case = iota // case (1): 54 000 atoms  = 2·30³
	Medium             // case (2): 265 302 atoms = 2·51³
	Large3             // case (3): 1 062 882 atoms = 2·81³
	Large4             // case (4): 3 456 000 atoms = 2·120³
)

// Cases lists all four paper cases in order.
var Cases = []Case{Small, Medium, Large3, Large4}

// String names the case the way the paper's Table 1 does.
func (c Case) String() string {
	switch c {
	case Small:
		return "Small case (1)"
	case Medium:
		return "Medium case (2)"
	case Large3:
		return "Large case (3)"
	case Large4:
		return "Large case (4)"
	}
	return fmt.Sprintf("Case(%d)", int(c))
}

// CellsPerSide returns n where the case is a bcc n×n×n replica.
func (c Case) CellsPerSide() int {
	switch c {
	case Small:
		return 30
	case Medium:
		return 51
	case Large3:
		return 81
	case Large4:
		return 120
	}
	return 0
}

// Atoms returns the exact atom count of the paper case.
func (c Case) Atoms() int {
	n := c.CellsPerSide()
	return 2 * n * n * n
}

// ScaledCase builds a geometrically similar (same bcc Fe crystal,
// same density) but smaller replica with cellsPerSide cells. The
// experiment harness uses this in measured mode so runs fit the host
// while the perf model uses the true sizes; speedup is size-normalized.
func ScaledCase(cellsPerSide int) (*Config, error) {
	return Build(BCC, cellsPerSide, cellsPerSide, cellsPerSide, FeLatticeConstant)
}
