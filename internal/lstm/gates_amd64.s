//go:build amd64 && !race

#include "textflag.h"

// The LSTM cell step after its product, in AVX2+FMA, on lane-exact replicas
// of Go's math. One entry:
//
//	cellAVX2   for each four-unit group: i = σ(pre_i), f = σ(pre_f),
//	           g = tanh(pre_g), o = σ(pre_o), c = f·C + i·g,
//	           tanh(c) and h = o·tanh(c)
//
// built from three kinds of lane code (the EXP, SIG_* and TANH_* macros
// below):
//
//	σ(v)       1 / (1 + math.Exp(-v))   the i, f and o rows
//	tanh(v)    math.Tanh(v)             the g row and c
//	exp(v)     math.Exp(v)              inside σ and tanh only
//
// The init self-check and the tests hold σ and tanh to math through this
// entry alone: any value in a gate row, and tanh(c) on the incoming C of a
// step whose f is σ(40) = 1 and whose i·g is +0·g = −0, so that c = C.

// Float-bits rule. A vector lane is one element, lanes never meet, and every
// lane performs the scalar code's IEEE operations on the same operands in
// the same order, so it ends on the same bits:
//
//   - exp is math.archExp's FMA path ($GOROOT/src/math/exp_amd64.s, taken
//     when the CPU has AVX and FMA) op for op: n = round-to-even(LOG2E·x)
//     (VCVTPD2DQ under the default MXCSR, like CVTSD2SL; the float n the
//     reduction multiplies is (t + 1.5·2^52) − 1.5·2^52, which rounds t to
//     even the same way and is exact wherever n is in range), r = x − n·LN2U
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
//     domain there. The exp and rational branches share one VDIVPD: each
//     lane divides its own branch's operands (2 by s+1, or x·s·P by Q), so
//     it is the scalar division, and the divider is the step's scarcest
//     port.
//   - the cell step computes f·C and i·g, each rounded, then their sum,
//     then o·tanh(c): two multiplies and one add, unfused, as the Go
//     expression f*C + i*g compiles on amd64.
//
// Fast domain. exp needs every lane's n in [−1022, 1023]: the lanes where
// archExp reaches its normal ldexp step (NaN and ±Inf give the out-of-range
// integer, so they fall out too); sigmoid needs the same of its saturated
// argument, which leaves out NaN and −710 < v < −709.44. tanh needs every
// lane finite. cellAVX2 stores a group of four only when all its lanes are
// in the domain of all five non-linearities of its units, tanh(c) included,
// and otherwise stops and returns how many units it finished; the Go caller
// computes the group with math. No denormal, overflow or NaN path is
// vectorised.
//
// Slots. exp is a ~30-op dependent chain, and one chain alone leaves the
// FMA ports idle; the core only overlaps chains it can see at once, so EXP
// runs a set of slots — one four-lane vector each, value in V, scratch in T
// — stage by stage: a stage is at most eight ops of one slot, then the same
// stage of the next slot. A slot's n waits in the frame (N(SP)) while T
// serves the polynomial. The cell step runs six slots (i, f and g of two
// groups: everything c needs) and then four (o and c of the two groups), so
// its critical path is two exp chains long.

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
F64X4(expMagic<>, $6755399441055744.0)
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

// SLOTS6 and SLOTS4 apply a stage M to each slot (V, T, N): V the value,
// T its scratch, N the frame offset of its saved n.
#define SLOTS6(M) \
	M(Y0, Y6, 0);   \
	M(Y1, Y7, 16);  \
	M(Y2, Y8, 32);  \
	M(Y3, Y9, 48);  \
	M(Y4, Y10, 64); \
	M(Y5, Y11, 80)

#define SLOTS4(M) \
	M(Y0, Y6, 0);  \
	M(Y1, Y7, 16); \
	M(Y2, Y8, 32); \
	M(Y3, Y9, 48)

// EXP_T: t = LOG2E·x in T; n = round(t) as int32 saved at N(SP) and its
// range check (a = n+1022 and b = a−2046: in range iff a >= 0 > b, the sign
// bit of ^a & b) ANDed into X15; then T = n as a float, through the
// 1.5·2^52 shift rather than back from the int32 — two adds are a shorter
// chain than two conversions. Clobbers X12, X13.
#define EXP_T(V, T, N) \
	VMULPD     expLog2e<>(SB), V, T;    \
	VCVTPD2DQY T, X12;                  \
	VMOVDQU    X12, N(SP);              \
	VPADDD     expNLo<>(SB), X12, X12;  \
	VPSUBD     expNSpan<>(SB), X12, X13; \
	VPANDN     X13, X12, X13;           \
	VPAND      X13, X15, X15;           \
	VADDPD     expMagic<>(SB), T, T;    \
	VSUBPD     expMagic<>(SB), T, T

// EXP_R: r = (x − n·LN2U − n·LN2L)·0.0625 in V, and T = c8.
#define EXP_R(V, T, N) \
	VFNMADD231PD expLn2u<>(SB), T, V;    \
	VFNMADD231PD expLn2l<>(SB), T, V;    \
	VMULPD       expSixteenth<>(SB), V, V; \
	VMOVUPD      expC8<>(SB), T

// EXP_P: the Horner chain down to 1, then V = r·p.
#define EXP_P(V, T, N) \
	VFMADD213PD expC7<>(SB), V, T;  \
	VFMADD213PD expC6<>(SB), V, T;  \
	VFMADD213PD expC5<>(SB), V, T;  \
	VFMADD213PD expC4<>(SB), V, T;  \
	VFMADD213PD expC3<>(SB), V, T;  \
	VFMADD213PD expHalf<>(SB), V, T; \
	VFMADD213PD gateOne<>(SB), V, T; \
	VMULPD      T, V, V

// EXP_S: three squarings (r+2)·r, then the fused (r+2)·r + 1.
#define EXP_S(V, T, N) \
	VADDPD      gateTwo<>(SB), V, T; \
	VMULPD      T, V, V;             \
	VADDPD      gateTwo<>(SB), V, T; \
	VMULPD      T, V, V;             \
	VADDPD      gateTwo<>(SB), V, T; \
	VMULPD      T, V, V;             \
	VADDPD      gateTwo<>(SB), V, T; \
	VFMADD213PD gateOne<>(SB), T, V

// EXP_N: V ·= 2^n, n read back from N(SP).
#define EXP_N(V, T, N) \
	VPMOVSXDQ N(SP), T;             \
	VPADDQ    expBias<>(SB), T, T;  \
	VPSLLQ    $52, T, T;            \
	VMULPD    T, V, V

// EXP sets every slot's V to exp(V), or jumps to stop if a lane's n is
// out of range. Clobbers the slots' T, X12, X13, X15 and BX.
#define EXP(SLOTS) \
	VPCMPEQD  X15, X15, X15; \
	SLOTS(EXP_T);            \
	VMOVMSKPS X15, BX;       \
	CMPL      BX, $15;       \
	JNE       stop;          \
	SLOTS(EXP_R);            \
	SLOTS(EXP_P);            \
	SLOTS(EXP_S);            \
	SLOTS(EXP_N)

// SIG_ARG sets V to the exp argument of sigmoid(src): −min(src, 700), or
// −0 where src <= −710. Clobbers T.
#define SIG_ARG(V, T, src) \
	VMOVUPD sigmoidHi<>(SB), T;        \
	VMINPD  src, T, V;                 \
	VMOVUPD sigmoidLo<>(SB), T;        \
	VCMPPD  $0x1D, src, T, T;          \
	VANDNPD V, T, V;                   \
	VXORPD  gateSign<>(SB), V, V

// SIG_POST turns V = exp(arg) into sigmoid(src): 1/(1+e), and +0 where
// src <= −710. Clobbers T.
#define SIG_POST(V, T, src) \
	VADDPD  gateOne<>(SB), V, V; \
	VMOVUPD gateOne<>(SB), T;    \
	VDIVPD  V, T, V;             \
	VMOVUPD sigmoidLo<>(SB), T;  \
	VCMPPD  $0x1D, src, T, T;    \
	VANDNPD V, T, V

// TANH_ARG sets V to the exp argument of tanh(src), 2|x| on the exp branch
// (0.625 <= |x| <= MAXLOG/2) and +0 off it, or jumps to stop unless every
// lane of src is finite. src may be V. Clobbers T, Y12 and BX.
#define TANH_ARG(V, T, src) \
	VMOVUPD   gateSign<>(SB), T;                 \
	VANDNPD   src, T, T;                         \
	VCMPPD    $0x12, gateMaxFinite<>(SB), T, V;  \
	VMOVMSKPD V, BX;                             \
	CMPL      BX, $15;                           \
	JNE       stop;                              \
	VCMPPD    $0x1D, tanhLo<>(SB), T, V;         \
	VCMPPD    $0x12, tanhHi<>(SB), T, Y12;       \
	VANDPD    Y12, V, V;                         \
	VADDPD    T, T, T;                           \
	VANDPD    V, T, V

// TANH_POST turns V = exp(arg) into tanh(src), src re-read as x: s+1 for
// the exp branch; s = x·x, P, Q and (x·s)·P for the rational one; one
// division of each lane's own branch's operands (2 by s+1, or (x·s)·P by
// Q) into q; 1 − q with x's sign and x + q; then the blend — the rational,
// ±1 past MAXLOG/2, x where x == 0, and last the exp branch. Clobbers T,
// Y12-Y15.
#define TANH_POST(V, T, src) \
	VADDPD    gateOne<>(SB), V, V;           \
	VMOVUPD   src, T;                        \
	VMULPD    T, T, Y12;                     \
	VMULPD    tanhP0<>(SB), Y12, Y13;        \
	VADDPD    tanhP1<>(SB), Y13, Y13;        \
	VMULPD    Y12, Y13, Y13;                 \
	VADDPD    tanhP2<>(SB), Y13, Y13;        \
	VADDPD    tanhQ0<>(SB), Y12, Y14;        \
	VMULPD    Y12, Y14, Y14;                 \
	VADDPD    tanhQ1<>(SB), Y14, Y14;        \
	VMULPD    Y12, Y14, Y14;                 \
	VADDPD    tanhQ2<>(SB), Y14, Y14;        \
	VMULPD    T, Y12, Y12;                   \
	VMULPD    Y13, Y12, Y12;                 \
	VMOVUPD   gateSign<>(SB), Y13;           \
	VANDNPD   T, Y13, Y13;                   \
	VCMPPD    $0x1D, tanhLo<>(SB), Y13, Y15; \
	VCMPPD    $0x12, tanhHi<>(SB), Y13, Y13; \
	VANDPD    Y13, Y15, Y15;                 \
	VBLENDVPD Y15, gateTwo<>(SB), Y12, Y12;  \
	VBLENDVPD Y15, V, Y14, Y14;              \
	VDIVPD    Y14, Y12, Y12;                 \
	VMOVUPD   gateOne<>(SB), V;              \
	VSUBPD    Y12, V, V;                     \
	VANDPD    gateSign<>(SB), T, Y14;        \
	VXORPD    Y14, V, V;                     \
	VADDPD    Y12, T, Y12;                   \
	VORPD     gateOne<>(SB), Y14, Y14;       \
	VBLENDVPD Y13, Y12, Y14, Y12;            \
	VXORPD    Y14, Y14, Y14;                 \
	VCMPPD    $0x00, Y14, T, Y14;            \
	VBLENDVPD Y14, T, Y12, Y12;              \
	VBLENDVPD Y15, V, Y12, V

// func cellAVX2(pre, act, tc, cs, hs *float64, h, n int) int
//
// Units j < n from the cursors on: pre and act hold gate r of unit j at
// r·h + j ([i; f; g; o], h the stride), cs and hs the state's C and H, tc
// tanh(c). A pass takes two groups, the second R9 = 32 bytes on, or a lone
// last group run in both halves (R9 = 0, so the second half's loads and
// stores repeat the first's, with the same bits). EXP runs i, f and g of
// both groups in six slots; c = f·C + i·g goes to the frame (96(SP),
// 128(SP)); EXP runs o and c in four. C, tanh(c) and H are stored only
// after tanh(c) has passed its domain check, so a pass that stops leaves
// the state as it found it (act is scratch: the caller rewrites a group it
// computes).
//
// SI pre, DI act, R13 tc, R11 C, R12 H cursors; R10 the gate stride and R15
// three of them, in bytes; DX and R8 the second group's pre and act; CX
// units left, AX units finished.
TEXT ·cellAVX2(SB), NOSPLIT, $160-64
	MOVQ pre+0(FP), SI
	MOVQ act+8(FP), DI
	MOVQ tc+16(FP), R13
	MOVQ cs+24(FP), R11
	MOVQ hs+32(FP), R12
	MOVQ h+40(FP), R10
	MOVQ n+48(FP), CX
	SHLQ $3, R10
	LEAQ (R10)(R10*2), R15
	XORQ AX, AX

loop:
	CMPQ    CX, $4
	JLT     stop
	MOVQ    $32, R9
	XORQ    BX, BX
	CMPQ    CX, $8
	CMOVQLT BX, R9
	LEAQ    (SI)(R9*1), DX
	LEAQ    (DI)(R9*1), R8

	SIG_ARG(Y0, Y6, (SI))
	SIG_ARG(Y1, Y7, (DX))
	SIG_ARG(Y2, Y8, (SI)(R10*1))
	SIG_ARG(Y3, Y9, (DX)(R10*1))
	TANH_ARG(Y4, Y10, (SI)(R10*2))
	TANH_ARG(Y5, Y11, (DX)(R10*2))
	EXP(SLOTS6)
	SIG_POST(Y0, Y6, (SI))
	SIG_POST(Y1, Y7, (DX))
	SIG_POST(Y2, Y8, (SI)(R10*1))
	SIG_POST(Y3, Y9, (DX)(R10*1))
	TANH_POST(Y4, Y10, (SI)(R10*2))
	TANH_POST(Y5, Y11, (DX)(R10*2))
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, (R8)
	VMOVUPD Y2, (DI)(R10*1)
	VMOVUPD Y3, (R8)(R10*1)
	VMOVUPD Y4, (DI)(R10*2)
	VMOVUPD Y5, (R8)(R10*2)

	// c = f·C + i·g.
	VMULPD  (R11), Y2, Y2
	VMULPD  (R11)(R9*1), Y3, Y3
	VMULPD  Y4, Y0, Y0
	VMULPD  Y5, Y1, Y1
	VADDPD  Y0, Y2, Y2
	VADDPD  Y1, Y3, Y3
	VMOVUPD Y2, 96(SP)
	VMOVUPD Y3, 128(SP)

	SIG_ARG(Y0, Y6, (SI)(R15*1))
	SIG_ARG(Y1, Y7, (DX)(R15*1))
	TANH_ARG(Y2, Y8, Y2)
	TANH_ARG(Y3, Y9, Y3)
	EXP(SLOTS4)
	SIG_POST(Y0, Y6, (SI)(R15*1))
	SIG_POST(Y1, Y7, (DX)(R15*1))
	TANH_POST(Y2, Y8, 96(SP))
	TANH_POST(Y3, Y9, 128(SP))

	VMOVUPD Y0, (DI)(R15*1)
	VMOVUPD Y1, (R8)(R15*1)
	VMOVUPD 96(SP), Y4
	VMOVUPD 128(SP), Y5
	VMOVUPD Y4, (R11)
	VMOVUPD Y5, (R11)(R9*1)
	VMOVUPD Y2, (R13)
	VMOVUPD Y3, (R13)(R9*1)
	VMULPD  Y2, Y0, Y0
	VMULPD  Y3, Y1, Y1
	VMOVUPD Y0, (R12)
	VMOVUPD Y1, (R12)(R9*1)

	LEAQ 32(R9), BX
	ADDQ BX, SI
	ADDQ BX, DI
	ADDQ BX, R11
	ADDQ BX, R12
	ADDQ BX, R13
	SHRQ $3, BX
	ADDQ BX, AX
	SUBQ BX, CX
	JMP  loop

stop:
	MOVQ AX, ret+56(FP)
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
