// Struct-of-arrays position storage. The simulator's public arrays stay
// AoS ([]vec.Vec3 — the integrator, IO and reducer ABI all speak Vec3),
// but the force kernels repack positions into three parallel coordinate
// slices once per evaluation. Combined with md's cell order, after
// which every neighbor cell's atoms are a dense ascending index range,
// the sweep over partindex then streams three dense float64 arrays cell
// by cell instead of gathering scattered 24-byte structs — the spatial
// layout of the paper's §II.D and of Meyer's cell-task kernels.
package core

import (
	"math"

	"sdcmd/internal/vec"
)

// SoA3 holds one float64 slice per Cartesian component.
type SoA3 struct {
	X, Y, Z []float64
}

// Len returns the number of stored vectors.
func (s *SoA3) Len() int { return len(s.X) }

// Resize grows or shrinks the component slices to n elements, reusing
// capacity when possible. Newly exposed elements are not cleared; Pack
// overwrites every element.
func (s *SoA3) Resize(n int) {
	if cap(s.X) < n {
		s.X = make([]float64, n)
		s.Y = make([]float64, n)
		s.Z = make([]float64, n)
		return
	}
	s.X = s.X[:n]
	s.Y = s.Y[:n]
	s.Z = s.Z[:n]
}

// Pack scatters src into the three component slices, resizing first.
func (s *SoA3) Pack(src []vec.Vec3) {
	s.PackIn(src, vec.Splat(math.Inf(-1)), vec.Splat(math.Inf(1)))
}

// PackIn is Pack that also reports, from the same pass, whether every
// vector of src lies in [lo, hi) on every axis. A NaN is outside. It
// spells out box.Box.Contains's six compares: a pass that called
// Contains took about 1.8 times as long on 54 000 vectors.
func (s *SoA3) PackIn(src []vec.Vec3, lo, hi vec.Vec3) bool {
	s.Resize(len(src))
	x, y, z := s.X[:len(src)], s.Y[:len(src)], s.Z[:len(src)]
	in := true
	for i, v := range src {
		x[i], y[i], z[i] = v[0], v[1], v[2]
		in = in && v[0] >= lo[0] && v[0] < hi[0] && v[1] >= lo[1] && v[1] < hi[1] && v[2] >= lo[2] && v[2] < hi[2]
	}
	return in
}

// At gathers element i back into a Vec3.
func (s *SoA3) At(i int) vec.Vec3 { return vec.Vec3{s.X[i], s.Y[i], s.Z[i]} }
