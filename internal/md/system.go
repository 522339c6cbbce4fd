package md

import (
	"fmt"
	"math"
	"math/rand"

	"sdcmd/internal/box"
	"sdcmd/internal/lattice"
	"sdcmd/internal/reorder"
	"sdcmd/internal/vec"
)

// System is the dynamical state of a simulation. Mass is the uniform
// per-atom mass; for multi-species systems set Masses (same length as
// Pos), which then takes precedence atom by atom.
type System struct {
	// Box is the periodic cell.
	Box box.Box
	// Pos, Vel, Force are per-atom state (same length).
	Pos, Vel, Force []vec.Vec3
	// Mass is the uniform per-atom mass in eV·ps²/Å².
	Mass float64
	// Masses, when non-nil, overrides Mass per atom (alloys).
	Masses []float64
}

// MassOf returns atom i's mass.
func (s *System) MassOf(i int) float64 {
	if s.Masses != nil {
		return s.Masses[i]
	}
	return s.Mass
}

// SetMasses installs per-atom masses (length must match; all positive).
func (s *System) SetMasses(m []float64) error {
	if len(m) != s.N() {
		return fmt.Errorf("md: %d masses for %d atoms", len(m), s.N())
	}
	for i, v := range m {
		if !(v > 0) {
			return fmt.Errorf("md: atom %d mass %g must be positive", i, v)
		}
	}
	s.Masses = append([]float64(nil), m...)
	return nil
}

// NewSystem allocates a system for n atoms.
func NewSystem(bx box.Box, n int, mass float64) (*System, error) {
	if n < 0 {
		return nil, fmt.Errorf("md: negative atom count %d", n)
	}
	if !(mass > 0) {
		return nil, fmt.Errorf("md: mass %g must be positive", mass)
	}
	return &System{
		Box:   bx,
		Pos:   make([]vec.Vec3, n),
		Vel:   make([]vec.Vec3, n),
		Force: make([]vec.Vec3, n),
		Mass:  mass,
	}, nil
}

// MustNewSystem is NewSystem for arguments known valid by construction;
// it panics on error.
func MustNewSystem(bx box.Box, n int, mass float64) *System {
	s, err := NewSystem(bx, n, mass)
	if err != nil {
		panic(err)
	}
	return s
}

// FromLattice builds a system from a crystal configuration with iron's
// mass (the paper's material).
func FromLattice(cfg *lattice.Config) *System {
	s := MustNewSystem(cfg.Box, cfg.N(), FeMass) // cfg.N() >= 0, FeMass > 0
	copy(s.Pos, cfg.Pos)
	return s
}

// N returns the atom count.
func (s *System) N() int { return len(s.Pos) }

// InitVelocities draws Maxwell-Boltzmann velocities for temperature T,
// removes the center-of-mass drift, and rescales to hit T exactly.
// Deterministic for a given seed.
func (s *System) InitVelocities(T float64, seed int64) error {
	if T < 0 {
		return fmt.Errorf("md: negative temperature %g", T)
	}
	n := s.N()
	if n == 0 {
		return nil
	}
	if T == 0 {
		vec.Fill(s.Vel, vec.Vec3{})
		return nil
	}
	rng := rand.New(rand.NewSource(seed))
	for i := range s.Vel {
		sigma := math.Sqrt(KB * T / s.MassOf(i))
		s.Vel[i] = vec.New(rng.NormFloat64()*sigma, rng.NormFloat64()*sigma, rng.NormFloat64()*sigma)
	}
	s.ZeroMomentum()
	// Rescale so the instantaneous temperature is exactly T (after
	// momentum removal the sample temperature differs slightly).
	cur := s.Temperature()
	if cur > 0 {
		scale := math.Sqrt(T / cur)
		for i := range s.Vel {
			s.Vel[i] = s.Vel[i].Scale(scale)
		}
	}
	return nil
}

// ZeroMomentum removes the center-of-mass velocity (mass-weighted).
func (s *System) ZeroMomentum() {
	if s.N() == 0 {
		return
	}
	var p vec.Vec3
	mTot := 0.0
	for i, v := range s.Vel {
		m := s.MassOf(i)
		p = p.AddScaled(m, v)
		mTot += m
	}
	vCom := p.Scale(1 / mTot)
	for i := range s.Vel {
		s.Vel[i] = s.Vel[i].Sub(vCom)
	}
}

// Momentum returns the total momentum Σ m_i·v_i.
func (s *System) Momentum() vec.Vec3 {
	var p vec.Vec3
	for i, v := range s.Vel {
		p = p.AddScaled(s.MassOf(i), v)
	}
	return p
}

// KineticEnergy returns ½ Σ m_i v_i².
func (s *System) KineticEnergy() float64 {
	ke := 0.0
	for i, v := range s.Vel {
		ke += s.MassOf(i) * v.Norm2()
	}
	return 0.5 * ke
}

// Temperature returns the instantaneous kinetic temperature
// 2·KE / (3 N k_B) (3N degrees of freedom; the removed center-of-mass
// drift is a negligible 3 DOF for the system sizes here).
func (s *System) Temperature() float64 {
	n := s.N()
	if n == 0 {
		return 0
	}
	return 2 * s.KineticEnergy() / (3 * float64(n) * KB)
}

// ApplyStrain homogeneously deforms the cell and positions by
// (1+eps[d]) per axis — one micro-deformation increment.
func (s *System) ApplyStrain(eps vec.Vec3) {
	s.Box.ApplyStrain(s.Pos, eps)
	s.Box = s.Box.Strained(eps)
}

// Permute renumbers the atoms: new index n holds the atom previously
// called p.NewToOld[n]. Positions, velocities, forces and per-atom
// masses move together, each into a new array, so the physical state
// is unchanged up to relabeling.
func (s *System) Permute(p reorder.Permutation) error {
	if p.N() != s.N() {
		return fmt.Errorf("md: permutation over %d atoms applied to %d", p.N(), s.N())
	}
	s.Pos = p.ApplyVec3(s.Pos)
	s.Vel = p.ApplyVec3(s.Vel)
	s.Force = p.ApplyVec3(s.Force)
	if s.Masses != nil {
		s.Masses = p.ApplyFloat64(s.Masses)
	}
	return nil
}

// Clone deep-copies the system.
func (s *System) Clone() *System {
	c := &System{Box: s.Box, Mass: s.Mass,
		Pos:   make([]vec.Vec3, s.N()),
		Vel:   make([]vec.Vec3, s.N()),
		Force: make([]vec.Vec3, s.N())}
	copy(c.Pos, s.Pos)
	copy(c.Vel, s.Vel)
	copy(c.Force, s.Force)
	if s.Masses != nil {
		c.Masses = append([]float64(nil), s.Masses...)
	}
	return c
}
