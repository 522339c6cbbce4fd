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

func TestCross(t *testing.T) {
	x := New(1, 0, 0)
	y := New(0, 1, 0)
	z := New(0, 0, 1)
	if got := x.Cross(y); got != z {
		t.Errorf("x×y = %v, want z", got)
	}
	if got := y.Cross(z); got != x {
		t.Errorf("y×z = %v, want x", got)
	}
	if got := z.Cross(x); got != y {
		t.Errorf("z×x = %v, want y", got)
	}
}

func TestCrossAnticommutative(t *testing.T) {
	f := func(a, b Vec3) bool {
		a, b = tame(a), tame(b)
		lhs := a.Cross(b)
		rhs := b.Cross(a).Neg()
		return lhs.ApproxEqual(rhs, 1e-9*(1+a.Norm()*b.Norm()))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCrossOrthogonal(t *testing.T) {
	f := func(a, b Vec3) bool {
		a, b = tame(a), tame(b)
		c := a.Cross(b)
		tol := 1e-6 * (1 + a.Norm()*b.Norm()*(a.Norm()+b.Norm()))
		return almostEq(c.Dot(a), 0, tol) && almostEq(c.Dot(b), 0, tol)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
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
	n := v.Normalized()
	if !almostEq(n.Norm(), 1, 1e-15) {
		t.Errorf("Normalized().Norm() = %v", n.Norm())
	}
	if Zero.Normalized() != Zero {
		t.Error("Zero.Normalized() must stay zero")
	}
}

func TestNormalizedUnitLength(t *testing.T) {
	f := func(a Vec3) bool {
		a = tame(a)
		if a.Norm() == 0 {
			return true
		}
		return almostEq(a.Normalized().Norm(), 1, 1e-12)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
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

func TestAbsFloor(t *testing.T) {
	v := New(-1.5, 2.5, -0.0)
	if got := v.Abs(); got != (Vec3{1.5, 2.5, 0}) {
		t.Errorf("Abs = %v", got)
	}
	if got := v.Floor(); got != (Vec3{-2, 2, 0}) {
		t.Errorf("Floor = %v", got)
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

func TestAXPY(t *testing.T) {
	dst := []Vec3{{1, 1, 1}, {2, 2, 2}}
	src := []Vec3{{1, 0, 0}, {0, 1, 0}}
	AXPY(dst, 2, src)
	if dst[0] != (Vec3{3, 1, 1}) || dst[1] != (Vec3{2, 4, 2}) {
		t.Errorf("AXPY = %v", dst)
	}
}

func TestAXPYMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("AXPY with mismatched lengths must panic")
		}
	}()
	AXPY(make([]Vec3, 2), 1, make([]Vec3, 3))
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
