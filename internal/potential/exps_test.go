package potential

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// expsSpecial are the edges of Exps's input: signed zeros and ones,
// the body's range limits and their neighbors, results that overflow
// or are subnormal, infinities and NaN.
var expsSpecial = []float64{
	0, math.Copysign(0, -1), 1, -1, 700, -700,
	math.Nextafter(700, 701), math.Nextafter(-700, -701),
	709, 709.78, 710, -708, -740, -745, -746,
	math.Inf(1), math.Inf(-1), math.NaN(),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, math.MaxFloat64, -math.MaxFloat64,
}

// expsRandom draws n inputs uniformly from [lo, hi).
func expsRandom(rng *rand.Rand, n int, lo, hi float64) []float64 {
	xs := make([]float64, n)
	for k := range xs {
		xs[k] = lo + (hi-lo)*rng.Float64()
	}
	return xs
}

// requireExps fails unless x holds math.Exp's bits of every src[k],
// the inputs Exps replaced: a NaN must stay a NaN with math.Exp's
// payload.
func requireExps(t *testing.T, what string, src, x []float64) {
	t.Helper()
	for k, v := range src {
		if got, want := math.Float64bits(x[k]), math.Float64bits(math.Exp(v)); got != want {
			t.Fatalf("%s: Exps(%v)[%d] = %v (%#x), math.Exp = %v (%#x)", what, v, k, x[k], got, math.Exp(v), want)
		}
	}
}

// exps runs Exps on a copy of src and returns it.
func exps(src []float64) []float64 {
	x := append([]float64(nil), src...)
	Exps(x)
	return x
}

// checkExps runs every bit-for-bit comparison of Exps with math.Exp on
// the path this process picked.
func checkExps(t *testing.T) {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	for _, r := range [][2]float64{{-20, 5}, {-700, 700}, {-3, 5}, {-800, 800}} {
		src := expsRandom(rng, 1<<17, r[0], r[1])
		requireExps(t, "random", src, exps(src))
	}

	// Each special value in every lane of a group and of a tail.
	for _, x := range expsSpecial {
		for n := 1; n <= 9; n++ {
			for at := 0; at < n; at++ {
				src := expsRandom(rng, n, -5, 1)
				src[at] = x
				requireExps(t, "special", src, exps(src))
			}
		}
	}

	// Every length through a tail past the strategies' 64-pair chunk,
	// at every alignment, on a slice of a longer buffer, as the kernels
	// pass their scratch: the words around it, which a wrong tail mask
	// would overwrite, must not move. The guard is inside the body's
	// range, so a lane that loads it does not send its group to
	// math.Exp.
	const guard = 1.25
	for n := 0; n <= 67; n++ {
		for off := 0; off < 4; off++ {
			src := expsRandom(rng, n, -20, 5)
			buf := make([]float64, off+n+2)
			for k := range buf {
				buf[k] = guard
			}
			x := buf[off+1 : off+1+n]
			copy(x, src)
			Exps(x)
			requireExps(t, "length", src, x)
			if buf[off] != guard || buf[off+1+n] != guard {
				t.Fatalf("length %d, offset %d: Exps wrote outside x", n, off)
			}
		}
	}
}

// TestExpsMatchesExp requires Exps to return math.Exp's bits on random
// inputs, on the special values in every lane, and on every length from
// 0 to 67 at every alignment.
func TestExpsMatchesExp(t *testing.T) {
	checkExps(t)
}

// TestExpsUnderFMAOff reruns the test binary with GODEBUG=cpu.fma=off,
// under which math.Exp takes its mul/add path, and requires Exps to
// match it there too: the init self-check must see that the FMA body
// no longer agrees and fall back to the loop.
func TestExpsUnderFMAOff(t *testing.T) {
	if strings.Contains(os.Getenv("GODEBUG"), "cpu.fma=off") {
		checkExps(t)
		return
	}
	if testing.Short() {
		t.Skip("starts a subprocess")
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestExpsUnderFMAOff$", "-test.count=1")
	cmd.Env = append(os.Environ(), "GODEBUG=cpu.fma=off")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("under GODEBUG=cpu.fma=off: %v\n%s", err, out)
	}
}

func BenchmarkExps(b *testing.B) {
	src := expsRandom(rand.New(rand.NewSource(1)), 64, -3, 1)
	x := make([]float64, len(src))
	for _, n := range []int{8, 64} {
		b.Run(fmt.Sprintf("exps/%d", n), func(b *testing.B) {
			for range b.N {
				copy(x, src[:n])
				Exps(x[:n])
			}
		})
		b.Run(fmt.Sprintf("loop/%d", n), func(b *testing.B) {
			for range b.N {
				copy(x, src[:n])
				expsLoop(x[:n])
			}
		})
	}
}
