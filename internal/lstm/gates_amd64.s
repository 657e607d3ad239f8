//go:build amd64 && !race

#include "textflag.h"

// AVX2+FMA gate non-linearities, lane-exact replicas of Go's math:
//
//	op 0 (opExp)      dst[i] = math.Exp(src[i])
//	op 1 (opSigmoid)  dst[i] = 1 / (1 + math.Exp(-src[i]))
//	op 2 (opTanh)     dst[i] = math.Tanh(src[i])
//
// Float-bits rule. A vector lane is one element, lanes never meet, and every
// lane performs the scalar code's IEEE operations on the same operands in
// the same order, so it ends on the same bits:
//
//   - exp is math.archExp's FMA path ($GOROOT/src/math/exp_amd64.s, taken
//     when the CPU has AVX and FMA) op for op: n = round-to-even(LOG2E·x)
//     (VCVTPD2DQ under the default MXCSR, like CVTSD2SL), r = x − n·LN2U
//     and r −= n·LN2L as single-rounding VFNMADD231PD, r·0.0625, the
//     VFMADD213PD Horner chain from c8 down to 1, r·p, three (r+2)·r
//     squarings, the fused (r+2)·r + 1, then ·2^n with 2^n built by
//     shifting n+1023 into the exponent field — the same multiply as the
//     scalar ldexp step. The same decimal constants as exp_amd64.s round to
//     the same doubles.
//   - sigmoid negates (exact), then 1 + e and 1 / that, as the Go
//     expression compiles (VADDPD/VDIVPD, each rounded once). Two facts
//     about the scalar sigmoid keep saturated lanes (a quarter of the
//     fleet_scale roll-out's) vectorised without ever taking exp outside
//     its domain: from v = 37 on, math.Exp(−v) < 2^−53, so 1 + e rounds
//     to 1 and the result is exactly 1 — a lane above 700 therefore runs
//     as 700; from v = −710 down (−Inf included), −v exceeds archExp's
//     Overflow, math.Exp returns +Inf and the result is exactly +0 — such
//     a lane runs as 0 and is zeroed at the end.
//   - tanh evaluates math.tanh's three branches in every lane and blends
//     them: |x| > MAXLOG/2 gives ±1; |x| >= 0.625 gives 1 − 2/(exp(2|x|)+1)
//     with x's sign; otherwise x + x·s·P(s)/Q(s), s = x·x, every operation
//     rounded on its own in Go's left-to-right order; x == 0 returns x.
//     Lanes outside the exp branch feed exp a +0, so exp never leaves its
//     domain there.
//
// Fast domain. exp needs every lane's n in [−1022, 1023]: the lanes where
// archExp reaches its normal ldexp step (NaN and ±Inf give the out-of-range
// integer, so they fall out too); sigmoid needs the same of its saturated
// argument, which leaves out NaN and −710 < v < −709.44. tanh needs every
// lane finite. A group of four is only stored when all its lanes are in the
// domain; gateAVX2 stops at the first group that is not and returns how many
// elements it wrote, and the Go caller computes that group with math. No
// denormal, overflow or NaN path is vectorised.
//
// Two groups (Y0/Y3) are in flight per iteration: exp is a ~30-op
// dependent chain, and one group alone leaves the FMA ports idle.

#define F64X4(name, v) \
	DATA name+0(SB)/8, v;  \
	DATA name+8(SB)/8, v;  \
	DATA name+16(SB)/8, v; \
	DATA name+24(SB)/8, v; \
	GLOBL name(SB), RODATA|NOPTR, $32

#define I32X4(name, v) \
	DATA name+0(SB)/4, v;  \
	DATA name+4(SB)/4, v;  \
	DATA name+8(SB)/4, v;  \
	DATA name+12(SB)/4, v; \
	GLOBL name(SB), RODATA|NOPTR, $16

F64X4(gateSign<>, $0x8000000000000000)
F64X4(gateOne<>, $1.0)
F64X4(gateTwo<>, $2.0)
F64X4(gateMaxFinite<>, $1.7976931348623157e+308)

F64X4(expLog2e<>, $1.4426950408889634073599246810018920)
F64X4(expLn2u<>, $0.69314718055966295651160180568695068359375)
F64X4(expLn2l<>, $0.28235290563031577122588448175013436025525412068e-12)
F64X4(expSixteenth<>, $0.0625)
F64X4(expC8<>, $2.4801587301587301587e-5)
F64X4(expC7<>, $1.9841269841269841270e-4)
F64X4(expC6<>, $1.3888888888888888889e-3)
F64X4(expC5<>, $8.3333333333333333333e-3)
F64X4(expC4<>, $4.1666666666666666667e-2)
F64X4(expC3<>, $1.6666666666666666667e-1)
F64X4(expHalf<>, $0.5)
F64X4(expBias<>, $1023)
I32X4(expNLo<>, $1022)
I32X4(expNSpan<>, $2046)

F64X4(sigmoidHi<>, $700.0)
F64X4(sigmoidLo<>, $-710.0)

F64X4(tanhLo<>, $0.625)
F64X4(tanhHi<>, $44.014845965556527147994)
F64X4(tanhP0<>, $-9.64399179425052238628e-1)
F64X4(tanhP1<>, $-9.92877231001918586564e1)
F64X4(tanhP2<>, $-1.61468768441708447952e3)
F64X4(tanhQ0<>, $1.12811678491632931402e2)
F64X4(tanhQ1<>, $2.23548839060100448583e3)
F64X4(tanhQ2<>, $4.84406305325125486048e3)

// EXP_REDUCE: for the exp arguments in Y0 and Y3, n = round(LOG2E·x) as
// int32 in X6/X7 and as float64 in Y2/Y5. Clobbers Y1, Y4.
#define EXP_REDUCE \
	VMULPD     expLog2e<>(SB), Y0, Y1; \
	VMULPD     expLog2e<>(SB), Y3, Y4; \
	VCVTPD2DQY Y1, X6;                 \
	VCVTPD2DQY Y4, X7;                 \
	VCVTDQ2PD  X6, Y2;                 \
	VCVTDQ2PD  X7, Y5

// EXP_DOMAIN jumps to stop unless every n in X6/X7 is in [−1022, 1023]:
// with a = n+1022 and b = a−2046, a lane is in range iff a >= 0 > b, the
// sign bit of ^a & b. Clobbers X8, X9, X12, X13, BX.
#define EXP_DOMAIN \
	VPADDD    expNLo<>(SB), X6, X8;   \
	VPADDD    expNLo<>(SB), X7, X12;  \
	VPSUBD    expNSpan<>(SB), X8, X9; \
	VPSUBD    expNSpan<>(SB), X12, X13; \
	VPANDN    X9, X8, X9;             \
	VPANDN    X13, X12, X13;          \
	VPAND     X13, X9, X9;            \
	VMOVMSKPS X9, BX;                 \
	CMPL      BX, $15;                \
	JNE       stop

// EXP_POLY finishes Y0 = exp(Y0) and Y3 = exp(Y3) after EXP_REDUCE.
// Clobbers Y1, Y2, Y4-Y7.
#define EXP_POLY \
	VFNMADD231PD expLn2u<>(SB), Y2, Y0;      \
	VFNMADD231PD expLn2u<>(SB), Y5, Y3;      \
	VFNMADD231PD expLn2l<>(SB), Y2, Y0;      \
	VFNMADD231PD expLn2l<>(SB), Y5, Y3;      \
	VMULPD       expSixteenth<>(SB), Y0, Y0; \
	VMULPD       expSixteenth<>(SB), Y3, Y3; \
	VMOVUPD      expC8<>(SB), Y1;            \
	VMOVUPD      expC8<>(SB), Y4;            \
	VFMADD213PD  expC7<>(SB), Y0, Y1;        \
	VFMADD213PD  expC7<>(SB), Y3, Y4;        \
	VFMADD213PD  expC6<>(SB), Y0, Y1;        \
	VFMADD213PD  expC6<>(SB), Y3, Y4;        \
	VFMADD213PD  expC5<>(SB), Y0, Y1;        \
	VFMADD213PD  expC5<>(SB), Y3, Y4;        \
	VFMADD213PD  expC4<>(SB), Y0, Y1;        \
	VFMADD213PD  expC4<>(SB), Y3, Y4;        \
	VFMADD213PD  expC3<>(SB), Y0, Y1;        \
	VFMADD213PD  expC3<>(SB), Y3, Y4;        \
	VFMADD213PD  expHalf<>(SB), Y0, Y1;      \
	VFMADD213PD  expHalf<>(SB), Y3, Y4;      \
	VFMADD213PD  gateOne<>(SB), Y0, Y1;      \
	VFMADD213PD  gateOne<>(SB), Y3, Y4;      \
	VMULPD       Y1, Y0, Y0;                 \
	VMULPD       Y4, Y3, Y3;                 \
	VADDPD       gateTwo<>(SB), Y0, Y1;      \
	VADDPD       gateTwo<>(SB), Y3, Y4;      \
	VMULPD       Y1, Y0, Y0;                 \
	VMULPD       Y4, Y3, Y3;                 \
	VADDPD       gateTwo<>(SB), Y0, Y1;      \
	VADDPD       gateTwo<>(SB), Y3, Y4;      \
	VMULPD       Y1, Y0, Y0;                 \
	VMULPD       Y4, Y3, Y3;                 \
	VADDPD       gateTwo<>(SB), Y0, Y1;      \
	VADDPD       gateTwo<>(SB), Y3, Y4;      \
	VMULPD       Y1, Y0, Y0;                 \
	VMULPD       Y4, Y3, Y3;                 \
	VADDPD       gateTwo<>(SB), Y0, Y1;      \
	VADDPD       gateTwo<>(SB), Y3, Y4;      \
	VFMADD213PD  gateOne<>(SB), Y1, Y0;      \
	VFMADD213PD  gateOne<>(SB), Y4, Y3;      \
	VPMOVSXDQ    X6, Y6;                     \
	VPMOVSXDQ    X7, Y7;                     \
	VPADDQ       expBias<>(SB), Y6, Y6;      \
	VPADDQ       expBias<>(SB), Y7, Y7;      \
	VPSLLQ       $52, Y6, Y6;                \
	VPSLLQ       $52, Y7, Y7;                \
	VMULPD       Y6, Y0, Y0;                 \
	VMULPD       Y7, Y3, Y3

// func gateAVX2(op gateOp, dst, src *float64, n int) int
//
// SI src cursor, DI dst cursor, CX elements left, AX elements written, R8
// op. Per iteration Y10/Y11 hold the two groups' inputs (a lone last group
// is loaded into both) and Y0/Y3 their results; Y14 is the sign mask and
// Y15 holds 1.0 throughout.
TEXT ·gateAVX2(SB), NOSPLIT, $0-40
	MOVQ    op+0(FP), R8
	MOVQ    dst+8(FP), DI
	MOVQ    src+16(FP), SI
	MOVQ    n+24(FP), CX
	XORQ    AX, AX
	VMOVUPD gateSign<>(SB), Y14
	VMOVUPD gateOne<>(SB), Y15

loop:
	CMPQ    CX, $4
	JLT     stop
	VMOVUPD (SI), Y10
	VMOVAPD Y10, Y11
	CMPQ    CX, $8
	JLT     dispatch
	VMOVUPD 32(SI), Y11

dispatch:
	CMPQ R8, $1
	JEQ  sigmoid
	JGT  tanh

	VMOVAPD Y10, Y0
	VMOVAPD Y11, Y3
	EXP_REDUCE
	EXP_DOMAIN
	EXP_POLY
	JMP     store

sigmoid:
	// Saturated lanes: v > 700 runs as 700, and v <= −710 runs as 0 with
	// its result zeroed (mask in Y10/Y11). NaN passes VMINPD as itself.
	VMOVUPD sigmoidHi<>(SB), Y8
	VMINPD  Y10, Y8, Y0
	VMINPD  Y11, Y8, Y3
	VCMPPD  $0x12, sigmoidLo<>(SB), Y10, Y10
	VCMPPD  $0x12, sigmoidLo<>(SB), Y11, Y11
	VANDNPD Y0, Y10, Y0
	VANDNPD Y3, Y11, Y3
	VXORPD  Y14, Y0, Y0
	VXORPD  Y14, Y3, Y3
	EXP_REDUCE
	EXP_DOMAIN
	EXP_POLY
	VADDPD  Y15, Y0, Y0
	VADDPD  Y15, Y3, Y3
	VDIVPD  Y0, Y15, Y0
	VDIVPD  Y3, Y15, Y3
	VANDNPD Y0, Y10, Y0
	VANDNPD Y3, Y11, Y3
	JMP     store

tanh:
	// z = |x| in Y12/Y13; every lane must be finite.
	VANDNPD   Y10, Y14, Y12
	VANDNPD   Y11, Y14, Y13
	VCMPPD    $0x12, gateMaxFinite<>(SB), Y12, Y8
	VCMPPD    $0x12, gateMaxFinite<>(SB), Y13, Y9
	VANDPD    Y9, Y8, Y8
	VMOVMSKPD Y8, BX
	CMPL      BX, $15
	JNE       stop

	// Exp-branch lanes (0.625 <= z <= MAXLOG/2, mask in Y8/Y9) take
	// exp(2z); the others exp(+0).
	VCMPPD $0x1D, tanhLo<>(SB), Y12, Y8
	VCMPPD $0x1D, tanhLo<>(SB), Y13, Y9
	VCMPPD $0x12, tanhHi<>(SB), Y12, Y0
	VCMPPD $0x12, tanhHi<>(SB), Y13, Y3
	VANDPD Y0, Y8, Y8
	VANDPD Y3, Y9, Y9
	VADDPD Y12, Y12, Y0
	VADDPD Y13, Y13, Y3
	VANDPD Y8, Y0, Y0
	VANDPD Y9, Y3, Y3
	EXP_REDUCE
	EXP_POLY

	// 1 − 2/(s+1) with x's sign.
	VADDPD  Y15, Y0, Y0
	VADDPD  Y15, Y3, Y3
	VMOVUPD gateTwo<>(SB), Y1
	VDIVPD  Y0, Y1, Y0
	VDIVPD  Y3, Y1, Y3
	VSUBPD  Y0, Y15, Y0
	VSUBPD  Y3, Y15, Y3
	VANDPD  Y14, Y10, Y1
	VANDPD  Y14, Y11, Y4
	VXORPD  Y1, Y0, Y0
	VXORPD  Y4, Y3, Y3

	// x + ((x·s)·P)/Q with P = (P0·s+P1)·s+P2, Q = ((s+Q0)·s+Q1)·s+Q2.
	VMULPD Y10, Y10, Y1
	VMULPD Y11, Y11, Y4
	VMULPD tanhP0<>(SB), Y1, Y2
	VMULPD tanhP0<>(SB), Y4, Y5
	VADDPD tanhP1<>(SB), Y2, Y2
	VADDPD tanhP1<>(SB), Y5, Y5
	VMULPD Y1, Y2, Y2
	VMULPD Y4, Y5, Y5
	VADDPD tanhP2<>(SB), Y2, Y2
	VADDPD tanhP2<>(SB), Y5, Y5
	VADDPD tanhQ0<>(SB), Y1, Y6
	VADDPD tanhQ0<>(SB), Y4, Y7
	VMULPD Y1, Y6, Y6
	VMULPD Y4, Y7, Y7
	VADDPD tanhQ1<>(SB), Y6, Y6
	VADDPD tanhQ1<>(SB), Y7, Y7
	VMULPD Y1, Y6, Y6
	VMULPD Y4, Y7, Y7
	VADDPD tanhQ2<>(SB), Y6, Y6
	VADDPD tanhQ2<>(SB), Y7, Y7
	VMULPD Y10, Y1, Y1
	VMULPD Y11, Y4, Y4
	VMULPD Y2, Y1, Y1
	VMULPD Y5, Y4, Y4
	VDIVPD Y6, Y1, Y1
	VDIVPD Y7, Y4, Y4
	VADDPD Y1, Y10, Y1
	VADDPD Y4, Y11, Y4

	// Blend the disjoint branches: the rational, ±1 past MAXLOG/2, x where
	// x == 0, and last — it is the longest chain — the exp branch.
	VCMPPD    $0x1E, tanhHi<>(SB), Y12, Y2
	VCMPPD    $0x1E, tanhHi<>(SB), Y13, Y5
	VANDPD    Y14, Y10, Y6
	VANDPD    Y14, Y11, Y7
	VORPD     Y15, Y6, Y6
	VORPD     Y15, Y7, Y7
	VBLENDVPD Y2, Y6, Y1, Y1
	VBLENDVPD Y5, Y7, Y4, Y4
	VXORPD    Y6, Y6, Y6
	VCMPPD    $0x00, Y6, Y12, Y2
	VCMPPD    $0x00, Y6, Y13, Y5
	VBLENDVPD Y2, Y10, Y1, Y1
	VBLENDVPD Y5, Y11, Y4, Y4
	VBLENDVPD Y8, Y0, Y1, Y0
	VBLENDVPD Y9, Y3, Y4, Y3

store:
	VMOVUPD Y0, (DI)
	CMPQ    CX, $8
	JLT     last
	VMOVUPD Y3, 32(DI)
	ADDQ    $64, SI
	ADDQ    $64, DI
	ADDQ    $8, AX
	SUBQ    $8, CX
	JMP     loop

last:
	ADDQ $4, AX

stop:
	MOVQ AX, ret+32(FP)
	VZEROUPPER
	RET

// func cpuHasGateAsm() bool
//
// The vector gates need what math.Exp's FMA path needs — AVX and FMA
// (CPUID.1:ECX bits 28 and 12) with OSXSAVE (bit 27) and the OS saving the
// YMM state (XCR0 bits 1 and 2) — plus AVX2 (CPUID.7:EBX bit 5) for the
// integer lanes.
TEXT ·cpuHasGateAsm(SB), NOSPLIT, $0-1
	MOVB  $0, ret+0(FP)
	XORL  AX, AX
	XORL  CX, CX
	CPUID
	CMPL  AX, $7
	JLT   no
	MOVL  $1, AX
	XORL  CX, CX
	CPUID
	ANDL  $0x18001000, CX
	CMPL  CX, $0x18001000
	JNE   no
	XORL  CX, CX
	XGETBV
	ANDL  $6, AX
	CMPL  AX, $6
	JNE   no
	MOVL  $7, AX
	XORL  CX, CX
	CPUID
	BTL   $5, BX
	JCC   no
	MOVB  $1, ret+0(FP)

no:
	RET
