// Package vec provides the small fixed-size vector arithmetic used
// throughout the simulator. Vectors are plain value types ([3]float64
// wrappers) so they can live inside large contiguous slices without
// pointer indirection, which matters for the cache behaviour the paper's
// §II.D optimizations are about.
package vec

import (
	"fmt"
	"math"
)

// Axis indexes into a Vec3, matching the X/Y/Z constants used by the
// paper's force arrays (force[i][X] etc.).
type Axis int

// Cartesian axes.
const (
	X Axis = iota
	Y
	Z
)

// String returns "X", "Y" or "Z".
func (a Axis) String() string {
	switch a {
	case X:
		return "X"
	case Y:
		return "Y"
	case Z:
		return "Z"
	}
	return fmt.Sprintf("Axis(%d)", int(a))
}

// Vec3 is a 3-component Cartesian vector.
type Vec3 [3]float64

// New builds a Vec3 from its components.
func New(x, y, z float64) Vec3 { return Vec3{x, y, z} }

// Splat returns a vector with all three components equal to s.
func Splat(s float64) Vec3 { return Vec3{s, s, s} }

// Zero is the zero vector.
var Zero = Vec3{}

// Add returns v + w.
func (v Vec3) Add(w Vec3) Vec3 { return Vec3{v[0] + w[0], v[1] + w[1], v[2] + w[2]} }

// Sub returns v - w.
func (v Vec3) Sub(w Vec3) Vec3 { return Vec3{v[0] - w[0], v[1] - w[1], v[2] - w[2]} }

// Scale returns s*v.
func (v Vec3) Scale(s float64) Vec3 { return Vec3{s * v[0], s * v[1], s * v[2]} }

// Neg returns -v.
func (v Vec3) Neg() Vec3 { return Vec3{-v[0], -v[1], -v[2]} }

// Dot returns the inner product v·w.
func (v Vec3) Dot(w Vec3) float64 { return v[0]*w[0] + v[1]*w[1] + v[2]*w[2] }

// Norm2 returns |v|² (avoids the sqrt when only comparisons are needed,
// e.g. the cutoff test in the neighbor-list inner loop).
func (v Vec3) Norm2() float64 { return v.Dot(v) }

// Norm returns the Euclidean length |v|.
func (v Vec3) Norm() float64 { return math.Sqrt(v.Norm2()) }

// AddScaled returns v + s*w, the fused form used by integrators.
func (v Vec3) AddScaled(s float64, w Vec3) Vec3 {
	return Vec3{v[0] + s*w[0], v[1] + s*w[1], v[2] + s*w[2]}
}

// Min returns the component-wise minimum of v and w.
func (v Vec3) Min(w Vec3) Vec3 {
	return Vec3{math.Min(v[0], w[0]), math.Min(v[1], w[1]), math.Min(v[2], w[2])}
}

// Max returns the component-wise maximum of v and w.
func (v Vec3) Max(w Vec3) Vec3 {
	return Vec3{math.Max(v[0], w[0]), math.Max(v[1], w[1]), math.Max(v[2], w[2])}
}

// MinComponent returns the smallest of the three components.
func (v Vec3) MinComponent() float64 { return math.Min(v[0], math.Min(v[1], v[2])) }

// IsFinite reports whether all components are finite (no NaN/Inf).
func (v Vec3) IsFinite() bool {
	for _, c := range v {
		if math.IsNaN(c) || math.IsInf(c, 0) {
			return false
		}
	}
	return true
}

// ApproxEqual reports whether v and w agree component-wise within tol
// (absolute tolerance).
func (v Vec3) ApproxEqual(w Vec3, tol float64) bool {
	return math.Abs(v[0]-w[0]) <= tol &&
		math.Abs(v[1]-w[1]) <= tol &&
		math.Abs(v[2]-w[2]) <= tol
}

// String formats the vector as "(x, y, z)" with %g components.
func (v Vec3) String() string {
	return fmt.Sprintf("(%g, %g, %g)", v[0], v[1], v[2])
}

// Sum accumulates a slice of vectors. It is used by conservation checks
// (ΣF over all atoms must vanish for pairwise-additive forces).
func Sum(vs []Vec3) Vec3 {
	var s Vec3
	for _, v := range vs {
		s[0] += v[0]
		s[1] += v[1]
		s[2] += v[2]
	}
	return s
}

// MaxNorm returns the largest |v| in vs, 0 for an empty slice.
func MaxNorm(vs []Vec3) float64 {
	max := 0.0
	for _, v := range vs {
		if n := v.Norm(); n > max {
			max = n
		}
	}
	return max
}

// Fill sets every element of dst to v. It is the hot "zero the force
// array" step at the top of every force evaluation.
func Fill(dst []Vec3, v Vec3) {
	for i := range dst {
		dst[i] = v
	}
}
