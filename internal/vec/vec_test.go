package vec

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// tame maps an arbitrary generated vector into [-1e3, 1e3]³ so products
// in the property tests cannot overflow; NaN components become 0.
func tame(v Vec3) Vec3 {
	for d := range v {
		if math.IsNaN(v[d]) || math.IsInf(v[d], 0) {
			v[d] = 0
		} else {
			v[d] = math.Mod(v[d], 1e3)
		}
	}
	return v
}

func TestBasicArithmetic(t *testing.T) {
	v := New(1, 2, 3)
	w := New(4, -5, 6)

	if got := v.Add(w); got != (Vec3{5, -3, 9}) {
		t.Errorf("Add = %v", got)
	}
	if got := v.Sub(w); got != (Vec3{-3, 7, -3}) {
		t.Errorf("Sub = %v", got)
	}
	if got := v.Scale(2); got != (Vec3{2, 4, 6}) {
		t.Errorf("Scale = %v", got)
	}
	if got := v.Neg(); got != (Vec3{-1, -2, -3}) {
		t.Errorf("Neg = %v", got)
	}
	if got := v.Dot(w); got != 4-10+18 {
		t.Errorf("Dot = %v", got)
	}
}

func TestSplatAndZero(t *testing.T) {
	if Splat(3) != (Vec3{3, 3, 3}) {
		t.Error("Splat(3) wrong")
	}
	if Zero != (Vec3{}) {
		t.Error("Zero not zero")
	}
}

func TestNorm(t *testing.T) {
	v := New(3, 4, 0)
	if v.Norm() != 5 {
		t.Errorf("Norm = %v", v.Norm())
	}
	if v.Norm2() != 25 {
		t.Errorf("Norm2 = %v", v.Norm2())
	}
}

func TestAddScaled(t *testing.T) {
	v := New(1, 1, 1)
	w := New(1, 2, 3)
	if got := v.AddScaled(2, w); got != (Vec3{3, 5, 7}) {
		t.Errorf("AddScaled = %v", got)
	}
}

func TestMinMax(t *testing.T) {
	v := New(1, 5, 3)
	w := New(2, 4, 3)
	if got := v.Min(w); got != (Vec3{1, 4, 3}) {
		t.Errorf("Min = %v", got)
	}
	if got := v.Max(w); got != (Vec3{2, 5, 3}) {
		t.Errorf("Max = %v", got)
	}
	if v.MinComponent() != 1 {
		t.Errorf("MinComponent = %v", v.MinComponent())
	}
}

func TestIsFinite(t *testing.T) {
	if !New(1, 2, 3).IsFinite() {
		t.Error("finite vector reported non-finite")
	}
	if New(math.NaN(), 0, 0).IsFinite() {
		t.Error("NaN vector reported finite")
	}
	if New(0, math.Inf(1), 0).IsFinite() {
		t.Error("Inf vector reported finite")
	}
}

func TestApproxEqual(t *testing.T) {
	a := New(1, 2, 3)
	b := New(1+1e-12, 2, 3)
	if !a.ApproxEqual(b, 1e-9) {
		t.Error("ApproxEqual should hold within tol")
	}
	if a.ApproxEqual(New(1.1, 2, 3), 1e-3) {
		t.Error("ApproxEqual should fail outside tol")
	}
}

func TestString(t *testing.T) {
	if got := New(1, 2.5, -3).String(); got != "(1, 2.5, -3)" {
		t.Errorf("String = %q", got)
	}
	if got := X.String(); got != "X" {
		t.Errorf("Axis X String = %q", got)
	}
	if got := Axis(7).String(); got != "Axis(7)" {
		t.Errorf("bad axis String = %q", got)
	}
}

func TestSum(t *testing.T) {
	vs := []Vec3{{1, 2, 3}, {-1, -2, -3}, {10, 0, 0}}
	if got := Sum(vs); got != (Vec3{10, 0, 0}) {
		t.Errorf("Sum = %v", got)
	}
	if Sum(nil) != Zero {
		t.Error("Sum(nil) must be zero")
	}
}

func TestMaxNorm(t *testing.T) {
	vs := []Vec3{{1, 0, 0}, {0, 5, 0}, {3, 0, 4}}
	if got := MaxNorm(vs); got != 5 {
		t.Errorf("MaxNorm = %v", got)
	}
	if MaxNorm(nil) != 0 {
		t.Error("MaxNorm(nil) must be 0")
	}
}

func TestFill(t *testing.T) {
	dst := make([]Vec3, 4)
	Fill(dst, New(1, 2, 3))
	for i, v := range dst {
		if v != (Vec3{1, 2, 3}) {
			t.Errorf("Fill[%d] = %v", i, v)
		}
	}
}

func TestDotSymmetricBilinear(t *testing.T) {
	f := func(a, b Vec3, s float64) bool {
		a, b = tame(a), tame(b)
		if math.IsNaN(s) || math.IsInf(s, 0) {
			return true
		}
		s = math.Mod(s, 1e3)
		tol := 1e-6 * (1 + math.Abs(s)*a.Norm()*b.Norm())
		return almostEq(a.Dot(b), b.Dot(a), tol) &&
			almostEq(a.Scale(s).Dot(b), s*a.Dot(b), tol)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAddSubRoundTrip(t *testing.T) {
	f := func(a, b Vec3) bool {
		a, b = tame(a), tame(b)
		return a.Add(b).Sub(b).ApproxEqual(a, 1e-9*(1+a.Norm()+b.Norm()))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
