package box

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"sdcmd/internal/vec"
)

func TestNewRejectsDegenerate(t *testing.T) {
	cases := []struct {
		lo, hi vec.Vec3
	}{
		{vec.New(0, 0, 0), vec.New(0, 1, 1)},
		{vec.New(0, 0, 0), vec.New(1, -1, 1)},
		{vec.New(2, 0, 0), vec.New(1, 1, 1)},
	}
	for _, c := range cases {
		if _, err := New(c.lo, c.hi); err == nil {
			t.Errorf("New(%v,%v): want error", c.lo, c.hi)
		}
	}
	if _, err := New(vec.Zero, vec.Splat(3)); err != nil {
		t.Fatalf("valid box rejected: %v", err)
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNew on degenerate box must panic")
		}
	}()
	MustNew(vec.Zero, vec.Zero)
}

func TestVolumeLengthsCenter(t *testing.T) {
	b := MustNew(vec.New(1, 2, 3), vec.New(3, 6, 11))
	if got := b.Lengths(); got != vec.New(2, 4, 8) {
		t.Errorf("Lengths = %v", got)
	}
	if got := b.Volume(); got != 64 {
		t.Errorf("Volume = %v", got)
	}
	if got := b.Center(); got != vec.New(2, 4, 7) {
		t.Errorf("Center = %v", got)
	}
}

func TestWrapInsideCell(t *testing.T) {
	b := MustNew(vec.New(-1, 0, 2), vec.New(1, 5, 4))
	f := func(p vec.Vec3) bool {
		if !p.IsFinite() {
			return true
		}
		// Clamp generated magnitudes so Floor stays exact.
		for d := 0; d < 3; d++ {
			p[d] = math.Mod(p[d], 1e6)
		}
		w := b.Wrap(p)
		return b.Contains(w)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWrapIdempotent(t *testing.T) {
	b := MustNew(vec.New(0, 0, 0), vec.New(2, 3, 4))
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		p := vec.New(rng.Float64()*20-10, rng.Float64()*20-10, rng.Float64()*20-10)
		w := b.Wrap(p)
		if w2 := b.Wrap(w); w2 != w {
			t.Fatalf("Wrap not idempotent: %v -> %v -> %v", p, w, w2)
		}
	}
}

func TestWrapPreservesEquivalenceClass(t *testing.T) {
	b := MustNew(vec.Zero, vec.New(2, 3, 4))
	l := b.Lengths()
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 1000; i++ {
		p := vec.New(rng.Float64()*2, rng.Float64()*3, rng.Float64()*4)
		shift := vec.New(
			float64(rng.Intn(7)-3)*l[0],
			float64(rng.Intn(7)-3)*l[1],
			float64(rng.Intn(7)-3)*l[2],
		)
		w := b.Wrap(p.Add(shift))
		if !w.ApproxEqual(p, 1e-9) {
			t.Fatalf("Wrap(%v + %v) = %v, want %v", p, shift, w, p)
		}
	}
}

func TestWrapNonPeriodicAxis(t *testing.T) {
	b := MustNew(vec.Zero, vec.Splat(2))
	b.Periodic[1] = false
	p := vec.New(3, 5, -1)
	w := b.Wrap(p)
	if w[1] != 5 {
		t.Errorf("non-periodic axis was wrapped: %v", w)
	}
	if w[0] != 1 || w[2] != 1 {
		t.Errorf("periodic axes wrong: %v", w)
	}
}

func TestWrapExactBoundary(t *testing.T) {
	b := MustNew(vec.Zero, vec.Splat(1))
	w := b.Wrap(vec.New(1, -1, 2))
	if !b.Contains(w) {
		t.Errorf("boundary wrap escaped the cell: %v", w)
	}
}

func TestMinImageBounds(t *testing.T) {
	b := MustNew(vec.Zero, vec.New(2, 3, 4))
	l := b.Lengths()
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 2000; i++ {
		p := vec.New(rng.Float64()*2, rng.Float64()*3, rng.Float64()*4)
		q := vec.New(rng.Float64()*2, rng.Float64()*3, rng.Float64()*4)
		d := b.MinImage(p, q)
		for a := 0; a < 3; a++ {
			if math.Abs(d[a]) > l[a]/2+1e-12 {
				t.Fatalf("MinImage component %d out of range: %v", a, d)
			}
		}
	}
}

func TestMinImageAntisymmetric(t *testing.T) {
	b := MustNew(vec.Zero, vec.New(5, 5, 5))
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 1000; i++ {
		p := vec.New(rng.Float64()*5, rng.Float64()*5, rng.Float64()*5)
		q := vec.New(rng.Float64()*5, rng.Float64()*5, rng.Float64()*5)
		dij := b.MinImage(p, q)
		dji := b.MinImage(q, p)
		if !dij.ApproxEqual(dji.Neg(), 1e-12) {
			t.Fatalf("MinImage not antisymmetric: %v vs %v", dij, dji)
		}
	}
}

func TestMinImageMatchesBruteForce(t *testing.T) {
	b := MustNew(vec.Zero, vec.New(2, 3, 4))
	l := b.Lengths()
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 500; i++ {
		p := b.Wrap(vec.New(rng.Float64()*9, rng.Float64()*9, rng.Float64()*9))
		q := b.Wrap(vec.New(rng.Float64()*9, rng.Float64()*9, rng.Float64()*9))
		got := b.Distance(p, q)
		// Brute force over 27 images.
		best := math.Inf(1)
		for ix := -1; ix <= 1; ix++ {
			for iy := -1; iy <= 1; iy++ {
				for iz := -1; iz <= 1; iz++ {
					img := q.Add(vec.New(float64(ix)*l[0], float64(iy)*l[1], float64(iz)*l[2]))
					if d := p.Sub(img).Norm(); d < best {
						best = d
					}
				}
			}
		}
		if math.Abs(got-best) > 1e-10 {
			t.Fatalf("Distance(%v,%v) = %g, brute force %g", p, q, got, best)
		}
	}
}

// TestImageMatchesMinImage pins the force kernels' image to MinImage:
// on random boxes with mixed periodic and open axes, for wrapped pᵢ and
// pⱼ, every displacement whose image lies within 0.49 L on each
// periodic axis has Image.Min's components equal to MinImage's bit for
// bit. Only an image within an ulp of L/2 may round the other way.
func TestImageMatchesMinImage(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	checked := 0
	for k := 0; k < 200; k++ {
		lo := vec.New(rng.Float64()*20-10, rng.Float64()*20-10, rng.Float64()*20-10)
		b := MustNew(lo, lo.Add(vec.New(0.5+rng.Float64()*30, 0.5+rng.Float64()*30, 0.5+rng.Float64()*30)))
		for a := range b.Periodic {
			b.Periodic[a] = rng.Intn(3) > 0
		}
		l, im := b.Lengths(), b.Image()
		point := func() vec.Vec3 {
			var p vec.Vec3
			for a := range p {
				p[a] = b.Lo[a] + (rng.Float64()*3-1)*l[a]
			}
			return b.Wrap(p)
		}
	pairs:
		for n := 0; n < 200; n++ {
			p, q := point(), point()
			want := b.MinImage(p, q)
			for a := range want {
				if b.Periodic[a] && math.Abs(want[a]) > 0.49*l[a] {
					continue pairs
				}
			}
			got := im.Min(p[0]-q[0], p[1]-q[1], p[2]-q[2])
			for a := range got {
				if math.Float64bits(got[a]) != math.Float64bits(want[a]) {
					t.Fatalf("%v: component %d differs: %x vs %x (p=%v q=%v)",
						b, a, math.Float64bits(got[a]), math.Float64bits(want[a]), p, q)
				}
			}
			checked++
		}
	}
	if checked < 30000 {
		t.Errorf("only %d of 40000 displacements within 0.49 L", checked)
	}
}

func TestMinImageNonPeriodic(t *testing.T) {
	b := MustNew(vec.Zero, vec.Splat(2))
	b.Periodic = [3]bool{false, false, false}
	p := vec.New(0.1, 0.1, 0.1)
	q := vec.New(1.9, 1.9, 1.9)
	if d := b.MinImage(p, q); !d.ApproxEqual(p.Sub(q), 1e-15) {
		t.Errorf("non-periodic MinImage must be plain difference, got %v", d)
	}
}

func TestFitsCutoff(t *testing.T) {
	b := MustNew(vec.Zero, vec.New(10, 10, 5))
	if !b.FitsCutoff(2.4) {
		t.Error("rc=2.4 should fit")
	}
	if b.FitsCutoff(2.6) {
		t.Error("rc=2.6 must not fit (z edge 5 < 5.2)")
	}
	b.Periodic[2] = false
	if !b.FitsCutoff(2.6) {
		t.Error("non-periodic short axis must not constrain rc")
	}
}

func TestStrain(t *testing.T) {
	b := MustNew(vec.New(1, 1, 1), vec.New(3, 3, 3))
	eps := vec.New(0.1, 0, -0.05)
	nb := b.Strained(eps)
	if got := nb.Lengths(); !got.ApproxEqual(vec.New(2.2, 2, 1.9), 1e-12) {
		t.Errorf("Strained lengths = %v", got)
	}
	ps := []vec.Vec3{{1, 1, 1}, {3, 3, 3}, {2, 2, 2}}
	b.ApplyStrain(ps, eps)
	if !ps[0].ApproxEqual(vec.New(1, 1, 1), 1e-12) {
		t.Errorf("Lo corner must be fixed, got %v", ps[0])
	}
	if !ps[1].ApproxEqual(vec.New(3.2, 3, 2.9), 1e-12) {
		t.Errorf("Hi corner = %v", ps[1])
	}
	// Relative (fractional) coordinates are preserved by homogeneous strain.
	if f := nb.FracCoord(ps[2]); !f.ApproxEqual(vec.Splat(0.5), 1e-12) {
		t.Errorf("frac coord after strain = %v", f)
	}
}

func TestFracCoord(t *testing.T) {
	b := MustNew(vec.New(0, 0, 0), vec.New(2, 4, 8))
	if f := b.FracCoord(vec.New(1, 1, 2)); !f.ApproxEqual(vec.New(0.5, 0.25, 0.25), 1e-15) {
		t.Errorf("FracCoord = %v", f)
	}
}

func TestWrapAll(t *testing.T) {
	b := MustNew(vec.Zero, vec.Splat(1))
	ps := []vec.Vec3{{1.5, -0.5, 0.25}}
	b.WrapAll(ps)
	if !ps[0].ApproxEqual(vec.New(0.5, 0.5, 0.25), 1e-12) {
		t.Errorf("WrapAll = %v", ps[0])
	}
}

func TestString(t *testing.T) {
	b := MustNew(vec.Zero, vec.Splat(1))
	if b.String() == "" {
		t.Error("empty String()")
	}
}

// fullWrap is Wrap without its in-cell fast path: the divide and floor
// on every periodic axis.
func fullWrap(b Box, p vec.Vec3) vec.Vec3 {
	l := b.Lengths()
	for d := 0; d < 3; d++ {
		if !b.Periodic[d] {
			continue
		}
		p[d] -= l[d] * math.Floor((p[d]-b.Lo[d])/l[d])
		if p[d] >= b.Hi[d] {
			p[d] = b.Lo[d]
		}
	}
	return p
}

// sameBits reports whether a and b agree bit for bit on every axis.
func sameBits(a, b vec.Vec3) bool {
	for d := range a {
		if math.Float64bits(a[d]) != math.Float64bits(b[d]) {
			return false
		}
	}
	return true
}

// ulps steps x by k units in the last place (down for negative k).
func ulps(x float64, k int) float64 {
	dir := math.Inf(1)
	if k < 0 {
		dir, k = math.Inf(-1), -k
	}
	for ; k > 0; k-- {
		x = math.Nextafter(x, dir)
	}
	return x
}

// TestWrapFastPathMatchesFullFormula checks Wrap, which skips the
// divide and floor on an axis already inside the cell, against the
// full formula bit for bit, at and around the faces, at −0, past an
// ulp where p − Lo rounds up to L, far outside, at NaN and on an open
// axis.
func TestWrapFastPathMatchesFullFormula(t *testing.T) {
	check := func(b Box, p vec.Vec3) {
		t.Helper()
		if got, want := b.Wrap(p), fullWrap(b, p); !sameBits(got, want) {
			t.Fatalf("%v: Wrap(%v) = %v, full formula %v", b, p, got, want)
		}
	}
	b := MustNew(vec.Zero, vec.Splat(17.199))
	mid := b.Center()
	for _, x := range []float64{
		ulps(b.Hi[0], -1), b.Hi[0], b.Lo[0], ulps(b.Lo[0], -1), math.Copysign(0, -1),
		5 * 17.199, -3 * 17.199, 1e6*17.199 + 2.5, -1e6*17.199 - 2.5, math.NaN(), math.Inf(1),
	} {
		p := mid
		p[0] = x
		check(b, p)
	}
	if w := b.Wrap(vec.New(math.Copysign(0, -1), 1, 1)); math.Signbit(w[0]) {
		t.Errorf("Wrap kept −0 at Lo = 0: %v", w)
	}
	open := b
	open.Periodic[1] = false
	check(open, vec.New(-4, 40, 17.199))

	// Boxes with a nonzero Lo: points within a few ulps of each face,
	// some of them below Hi with p − Lo rounding up to L.
	rng := rand.New(rand.NewSource(21))
	roundsUp := 0
	for n := 0; n < 100000; n++ {
		lo := vec.New(rng.Float64()*200-100, rng.Float64()*200-100, rng.Float64()*200-100)
		bx := MustNew(lo, lo.Add(vec.New(1+rng.Float64()*50, 1+rng.Float64()*50, 1+rng.Float64()*50)))
		l := bx.Lengths()
		var p vec.Vec3
		for d := range p {
			face := bx.Lo[d]
			if rng.Intn(2) == 0 {
				face = bx.Hi[d]
			}
			p[d] = ulps(face, rng.Intn(9)-4)
			if p[d] < bx.Hi[d] && p[d]-bx.Lo[d] == l[d] {
				roundsUp++
			}
		}
		check(bx, p)
	}
	if roundsUp == 0 {
		t.Error("no point below Hi had p − Lo round up to L; the slow-path case went untested")
	}
}
