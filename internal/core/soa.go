// Struct-of-arrays position storage. The simulator's public arrays stay
// AoS ([]vec.Vec3 — the integrator, IO and reducer ABI all speak Vec3),
// but the force kernels repack positions into three parallel coordinate
// slices once per evaluation. Combined with the block reorder, after
// which every subdomain's Atoms(s) is a dense ascending index range,
// the sweep over partindex then streams three dense float64 arrays per
// cell block instead of gathering scattered 24-byte structs — the
// cache-blocking layout of the paper's §II.D and of Meyer's cell-task
// kernels.
package core

import "sdcmd/internal/vec"

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
	s.Resize(len(src))
	for i, v := range src {
		s.X[i] = v[0]
		s.Y[i] = v[1]
		s.Z[i] = v[2]
	}
}

// At gathers element i back into a Vec3.
func (s *SoA3) At(i int) vec.Vec3 { return vec.Vec3{s.X[i], s.Y[i], s.Z[i]} }

// Unpack writes the stored vectors into dst, which must have Len()
// elements. It is the inverse of Pack.
func (s *SoA3) Unpack(dst []vec.Vec3) {
	for i := range dst {
		dst[i] = vec.Vec3{s.X[i], s.Y[i], s.Z[i]}
	}
}
