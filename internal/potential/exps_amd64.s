#include "textflag.h"

// expsAVX2 evaluates math.Exp four lanes at a time with the operations
// of the avxfma path of $GOROOT/src/math/exp_amd64.s, in their order,
// so each lane returns that routine's bits: Shibata's SLEEF exp
// ("Efficient evaluation methods of elementary functions suitable for
// SIMD computation", ISC'10), whose constants are repeated below, one
// per 32-byte row.
//
// The scalar routine rounds x·log2(e) to the integer k with CVTSD2SL,
// in MXCSR's rounding mode (to nearest even, which Go never changes);
// VROUNDPD $4 rounds in the same mode and gives the same value, bar
// the sign of a zero k, which changes no result. For |x| <= 700, k+1023 lies in [13, 2033], so the scalar
// routine takes none of its overflow, denormal or non-finite branches,
// and 2^k is built from the exponent bits: k + (2^52+1023) is exact,
// and its low twelve mantissa bits shifted to the exponent field are
// the bits of 2^k.

DATA expsconst<>+0x000(SB)/8, $1.4426950408889634073599246810018920 // log2(e)
DATA expsconst<>+0x008(SB)/8, $1.4426950408889634073599246810018920
DATA expsconst<>+0x010(SB)/8, $1.4426950408889634073599246810018920
DATA expsconst<>+0x018(SB)/8, $1.4426950408889634073599246810018920
DATA expsconst<>+0x020(SB)/8, $0.69314718055966295651160180568695068359375 // ln 2, upper part
DATA expsconst<>+0x028(SB)/8, $0.69314718055966295651160180568695068359375
DATA expsconst<>+0x030(SB)/8, $0.69314718055966295651160180568695068359375
DATA expsconst<>+0x038(SB)/8, $0.69314718055966295651160180568695068359375
DATA expsconst<>+0x040(SB)/8, $0.28235290563031577122588448175013436025525412068e-12 // ln 2, lower part
DATA expsconst<>+0x048(SB)/8, $0.28235290563031577122588448175013436025525412068e-12
DATA expsconst<>+0x050(SB)/8, $0.28235290563031577122588448175013436025525412068e-12
DATA expsconst<>+0x058(SB)/8, $0.28235290563031577122588448175013436025525412068e-12
DATA expsconst<>+0x060(SB)/8, $0.0625
DATA expsconst<>+0x068(SB)/8, $0.0625
DATA expsconst<>+0x070(SB)/8, $0.0625
DATA expsconst<>+0x078(SB)/8, $0.0625
DATA expsconst<>+0x080(SB)/8, $2.4801587301587301587e-5 // 1/8!
DATA expsconst<>+0x088(SB)/8, $2.4801587301587301587e-5
DATA expsconst<>+0x090(SB)/8, $2.4801587301587301587e-5
DATA expsconst<>+0x098(SB)/8, $2.4801587301587301587e-5
DATA expsconst<>+0x0a0(SB)/8, $1.9841269841269841270e-4 // 1/7!
DATA expsconst<>+0x0a8(SB)/8, $1.9841269841269841270e-4
DATA expsconst<>+0x0b0(SB)/8, $1.9841269841269841270e-4
DATA expsconst<>+0x0b8(SB)/8, $1.9841269841269841270e-4
DATA expsconst<>+0x0c0(SB)/8, $1.3888888888888888889e-3 // 1/6!
DATA expsconst<>+0x0c8(SB)/8, $1.3888888888888888889e-3
DATA expsconst<>+0x0d0(SB)/8, $1.3888888888888888889e-3
DATA expsconst<>+0x0d8(SB)/8, $1.3888888888888888889e-3
DATA expsconst<>+0x0e0(SB)/8, $8.3333333333333333333e-3 // 1/5!
DATA expsconst<>+0x0e8(SB)/8, $8.3333333333333333333e-3
DATA expsconst<>+0x0f0(SB)/8, $8.3333333333333333333e-3
DATA expsconst<>+0x0f8(SB)/8, $8.3333333333333333333e-3
DATA expsconst<>+0x100(SB)/8, $4.1666666666666666667e-2 // 1/4!
DATA expsconst<>+0x108(SB)/8, $4.1666666666666666667e-2
DATA expsconst<>+0x110(SB)/8, $4.1666666666666666667e-2
DATA expsconst<>+0x118(SB)/8, $4.1666666666666666667e-2
DATA expsconst<>+0x120(SB)/8, $1.6666666666666666667e-1 // 1/3!
DATA expsconst<>+0x128(SB)/8, $1.6666666666666666667e-1
DATA expsconst<>+0x130(SB)/8, $1.6666666666666666667e-1
DATA expsconst<>+0x138(SB)/8, $1.6666666666666666667e-1
DATA expsconst<>+0x140(SB)/8, $0.5
DATA expsconst<>+0x148(SB)/8, $0.5
DATA expsconst<>+0x150(SB)/8, $0.5
DATA expsconst<>+0x158(SB)/8, $0.5
DATA expsconst<>+0x160(SB)/8, $1.0
DATA expsconst<>+0x168(SB)/8, $1.0
DATA expsconst<>+0x170(SB)/8, $1.0
DATA expsconst<>+0x178(SB)/8, $1.0
DATA expsconst<>+0x180(SB)/8, $2.0
DATA expsconst<>+0x188(SB)/8, $2.0
DATA expsconst<>+0x190(SB)/8, $2.0
DATA expsconst<>+0x198(SB)/8, $2.0
DATA expsconst<>+0x1a0(SB)/8, $0x7fffffffffffffff // |x| mask
DATA expsconst<>+0x1a8(SB)/8, $0x7fffffffffffffff
DATA expsconst<>+0x1b0(SB)/8, $0x7fffffffffffffff
DATA expsconst<>+0x1b8(SB)/8, $0x7fffffffffffffff
DATA expsconst<>+0x1c0(SB)/8, $700.0 // largest |x| the body takes
DATA expsconst<>+0x1c8(SB)/8, $700.0
DATA expsconst<>+0x1d0(SB)/8, $700.0
DATA expsconst<>+0x1d8(SB)/8, $700.0
DATA expsconst<>+0x1e0(SB)/8, $4503599627371519.0 // 2^52 + 1023
DATA expsconst<>+0x1e8(SB)/8, $4503599627371519.0
DATA expsconst<>+0x1f0(SB)/8, $4503599627371519.0
DATA expsconst<>+0x1f8(SB)/8, $4503599627371519.0
GLOBL expsconst<>(SB), RODATA|NOPTR, $0x200

// Loading four qwords from row 3−t keeps the first t lanes of a tail
// of t < 4 elements.
DATA expstail<>+0x00(SB)/8, $-1
DATA expstail<>+0x08(SB)/8, $-1
DATA expstail<>+0x10(SB)/8, $-1
DATA expstail<>+0x18(SB)/8, $0
DATA expstail<>+0x20(SB)/8, $0
DATA expstail<>+0x28(SB)/8, $0
GLOBL expstail<>(SB), RODATA|NOPTR, $0x30

// EXP4 sets Y0 to the exps of the four lanes of Y0 and Y13 to their
// range mask: all ones where |x| <= 700 (an ordered, quiet compare),
// zero elsewhere and on NaN. It reads the constants held in Y4-Y12 and
// clobbers Y1-Y3. In order: k = round(x·log2 e) into Y1; x −= k·ln2U
// and x −= k·ln2L, each fused; x·0.0625; the Horner polynomial from
// 1/8! down to 1; y = x·p; three rounds of y = y·(y+2); y·(y+2) + 1,
// fused; and the product with 2^k.
#define EXP4 \
	VANDPD       Y9, Y0, Y13 \
	VCMPPD       $0x12, Y10, Y13, Y13 \
	VMULPD       Y4, Y0, Y1 \
	VROUNDPD     $4, Y1, Y1 \
	VFNMADD231PD Y5, Y1, Y0 \
	VFNMADD231PD Y6, Y1, Y0 \
	VMULPD       Y12, Y0, Y0 \
	VMOVUPD      expsconst<>+0x080(SB), Y2 \
	VFMADD213PD  expsconst<>+0x0a0(SB), Y0, Y2 \
	VFMADD213PD  expsconst<>+0x0c0(SB), Y0, Y2 \
	VFMADD213PD  expsconst<>+0x0e0(SB), Y0, Y2 \
	VFMADD213PD  expsconst<>+0x100(SB), Y0, Y2 \
	VFMADD213PD  expsconst<>+0x120(SB), Y0, Y2 \
	VFMADD213PD  expsconst<>+0x140(SB), Y0, Y2 \
	VFMADD213PD  Y8, Y0, Y2 \
	VMULPD       Y2, Y0, Y0 \
	VADDPD       Y7, Y0, Y2 \
	VMULPD       Y2, Y0, Y0 \
	VADDPD       Y7, Y0, Y2 \
	VMULPD       Y2, Y0, Y0 \
	VADDPD       Y7, Y0, Y2 \
	VMULPD       Y2, Y0, Y0 \
	VADDPD       Y7, Y0, Y2 \
	VFMADD213PD  Y8, Y2, Y0 \
	VADDPD       Y11, Y1, Y3 \
	VPSLLQ       $52, Y3, Y3 \
	VMULPD       Y3, Y0, Y0

// func expsAVX2(x []float64) (done int)
TEXT ·expsAVX2(SB), NOSPLIT, $0-32
	MOVQ x_base+0(FP), SI
	MOVQ x_len+8(FP), CX
	XORQ AX, AX
	VMOVUPD expsconst<>+0x000(SB), Y4
	VMOVUPD expsconst<>+0x020(SB), Y5
	VMOVUPD expsconst<>+0x040(SB), Y6
	VMOVUPD expsconst<>+0x180(SB), Y7
	VMOVUPD expsconst<>+0x160(SB), Y8
	VMOVUPD expsconst<>+0x1a0(SB), Y9
	VMOVUPD expsconst<>+0x1c0(SB), Y10
	VMOVUPD expsconst<>+0x1e0(SB), Y11
	VMOVUPD expsconst<>+0x060(SB), Y12

loop:
	MOVQ CX, DX
	SUBQ AX, DX
	CMPQ DX, $4
	JLT  tail
	VMOVUPD (SI)(AX*8), Y0
	EXP4
	VMOVMSKPD Y13, R8
	CMPQ      R8, $15
	JNE       out
	VMOVUPD   Y0, (SI)(AX*8)
	ADDQ      $4, AX
	JMP       loop

tail:
	// DX = t, the 0 to 3 elements left. The masked load reads only
	// them and zeroes the other lanes, whose exp is in range and
	// never stored.
	TESTQ DX, DX
	JZ    out
	MOVQ  $3, R9
	SUBQ  DX, R9
	LEAQ  expstail<>(SB), R10
	VMOVUPD (R10)(R9*8), Y14
	VMASKMOVPD (SI)(AX*8), Y14, Y0
	EXP4
	VMOVMSKPD Y13, R8
	CMPQ      R8, $15
	JNE       out
	VMASKMOVPD Y0, Y14, (SI)(AX*8)
	ADDQ       DX, AX

out:
	VZEROUPPER
	MOVQ AX, done+24(FP)
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	RET
