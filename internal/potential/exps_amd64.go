package potential

import "math"

// batched reports whether Exps runs the four-lane body of
// exps_amd64.s. It needs AVX2 and FMA, YMM state saved by the OS, and
// a body that matches math.Exp in this process: math.Exp takes its
// FMA path only when the runtime lets it use FMA (GODEBUG=cpu.fma=off
// turns that off), and the body has no other. The tests flip it to run
// the portable loop.
var batched = haveAVX2FMA() && expsMatchExp()

// expsCheck holds inputs on which math.Exp's FMA path and its mul/add
// path return different bits, over most of the body's range, eleven of
// them so that the check covers two full groups of four and a tail.
var expsCheck = [...]float64{
	-699.953, -299.98, -19.981, -3.99, -1.996, -0.998,
	-0.495, 0.252, 1.004, 3.003, 650.004,
}

// expsMatchExp reports whether the batched body gives math.Exp's bits
// on expsCheck.
func expsMatchExp() bool {
	got := expsCheck
	expsBatched(got[:])
	for k, x := range expsCheck {
		if math.Float64bits(got[k]) != math.Float64bits(math.Exp(x)) {
			return false
		}
	}
	return true
}

// expsBatched is Exps on the batched body. The body stops at the first
// group of four, or the final group of fewer, that holds a NaN or a
// value outside [−700, 700]: that group goes to math.Exp, which covers
// infinities and results that overflow or are subnormal, and the body
// resumes after it.
func expsBatched(x []float64) {
	for i := 0; i < len(x); {
		i += expsAVX2(x[i:])
		for end := min(i+4, len(x)); i < end; i++ {
			x[i] = math.Exp(x[i])
		}
	}
}

// expsAVX2 replaces x[k] with exp(x[k]) four lanes at a time and
// returns how many it replaced: all of x, or up to the group where it
// stopped.
//
//go:noescape
func expsAVX2(x []float64) (done int)

// haveAVX2FMA reports whether the CPU has AVX, AVX2 and FMA and the OS
// saves the YMM registers (OSXSAVE, and XCR0's SSE and AVX bits).
func haveAVX2FMA() bool {
	if maxID, _, _, _ := cpuid(0, 0); maxID < 7 {
		return false
	}
	const fma, osxsave, avx = 1 << 12, 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(fma|osxsave|avx) != fma|osxsave|avx {
		return false
	}
	if xgetbv()&6 != 6 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}

//go:noescape
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

//go:noescape
func xgetbv() (eax uint32)
