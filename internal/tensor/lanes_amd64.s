//go:build amd64 && !race

#include "textflag.h"

// AVX2 implementation of the epilogue lanes in lanes.go. Every lane is one
// element and performs the Go loop's operations in its order, with VMULPD
// then VADDPD where the loop multiplies then adds (never an FMA, which
// would round once where the loop rounds twice). Lanes never meet. When
// both operands are NaN an operation returns its first source's payload,
// so the first source of each VSUBPD/VMULPD/VADDPD is the operand the
// compiled Go loop computes into: the left one of a difference or sum,
// and of a product the freshly computed value rather than a channel
// constant (gamma·h, gamma·(x−mean), m·dy and k·(…) keep h, x−mean, dy and
// the bracket). TestLanesMatchGo pins that choice. Row passes broadcast a row's channel constants, run the row four
// lanes at a time and finish it under the VMASKMOVPD tail mask in Y15
// (masked-out lanes are not loaded, not stored and never fault). The row
// loops are do-while: the Go wrappers never call with an empty extent.

// Lane masks: 32 bytes read at offset 8*(4-n) have the first n lanes set.
DATA lnMask<>+0(SB)/8, $-1
DATA lnMask<>+8(SB)/8, $-1
DATA lnMask<>+16(SB)/8, $-1
DATA lnMask<>+24(SB)/8, $-1
DATA lnMask<>+32(SB)/8, $0
DATA lnMask<>+40(SB)/8, $0
DATA lnMask<>+48(SB)/8, $0
DATA lnMask<>+56(SB)/8, $0
GLOBL lnMask<>(SB), RODATA|NOPTR, $64

// ROW_TAIL sets Y15 to the lane mask of DX mod 4 lanes (a row of DX
// elements ends in that many) and BX to their bytes. Clobbers AX, CX.
#define ROW_TAIL \
	MOVQ    DX, BX;               \
	ANDQ    $3, BX;               \
	MOVQ    BX, AX;               \
	NEGQ    AX;                   \
	LEAQ    lnMask<>+32(SB), CX;  \
	VMOVDQU (CX)(AX*8), Y15;      \
	SHLQ    $3, BX

// FLAT_TAIL sets Y15 to the lane mask of the CX (< 4) elements left.
// Clobbers BX, CX.
#define FLAT_TAIL \
	NEGQ    CX;                   \
	LEAQ    lnMask<>+32(SB), BX;  \
	VMOVDQU (BX)(CX*8), Y15

// func reluAVX2(dst, a *float64, n int)
//
// Y1 = (a NLE_UQ 0): set where a > 0 or a is NaN, so a AND Y1 is a there
// and +0 elsewhere, −0 included. ANDed with Y13 (all bits but the sign) as
// well, a NaN leaves with its sign cleared, as the builtin max(a, 0)
// returns it: max(a, 0) bit for bit.
TEXT ·reluAVX2(SB), NOSPLIT, $0-24
	MOVQ     dst+0(FP), DI
	MOVQ     a+8(FP), SI
	MOVQ     n+16(FP), CX
	VXORPD   Y14, Y14, Y14
	VPCMPEQQ Y13, Y13, Y13
	VPSRLQ   $1, Y13, Y13
	CMPQ     CX, $4
	JLT      relutail

reluloop:
	VMOVUPD (SI), Y0
	VCMPPD  $0x16, Y14, Y0, Y1
	VANDPD  Y13, Y1, Y1
	VANDPD  Y1, Y0, Y0
	VMOVUPD Y0, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $4, CX
	CMPQ    CX, $4
	JGE     reluloop

relutail:
	TESTQ CX, CX
	JZ    reludone
	FLAT_TAIL
	VMASKMOVPD (SI), Y15, Y0
	VCMPPD     $0x16, Y14, Y0, Y1
	VANDPD     Y13, Y1, Y1
	VANDPD     Y1, Y0, Y0
	VMASKMOVPD Y0, Y15, (DI)

reludone:
	VZEROUPPER
	RET

// func reluBackwardAVX2(dst, grad, x *float64, n int)
//
// Y1 = (x's bits > 0 as int64), the Go loop's (^b & -b) >> 63 mask.
TEXT ·reluBackwardAVX2(SB), NOSPLIT, $0-32
	MOVQ  dst+0(FP), DI
	MOVQ  grad+8(FP), SI
	MOVQ  x+16(FP), DX
	MOVQ  n+24(FP), CX
	VPXOR Y14, Y14, Y14
	CMPQ  CX, $4
	JLT   rbtail

rbloop:
	VMOVDQU  (DX), Y0
	VPCMPGTQ Y14, Y0, Y1
	VPAND    (SI), Y1, Y1
	VMOVDQU  Y1, (DI)
	ADDQ     $32, SI
	ADDQ     $32, DI
	ADDQ     $32, DX
	SUBQ     $4, CX
	CMPQ     CX, $4
	JGE      rbloop

rbtail:
	TESTQ CX, CX
	JZ    rbdone
	FLAT_TAIL
	VMASKMOVPD (DX), Y15, Y0
	VMASKMOVPD (SI), Y15, Y2
	VPCMPGTQ   Y14, Y0, Y1
	VPAND      Y2, Y1, Y1
	VMASKMOVPD Y1, Y15, (DI)

rbdone:
	VZEROUPPER
	RET

// func addAVX2(dst, a, b *float64, n int)
TEXT ·addAVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ n+24(FP), CX
	CMPQ CX, $4
	JLT  addtail

addloop:
	VMOVUPD (SI), Y0
	VADDPD  (DX), Y0, Y0
	VMOVUPD Y0, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	ADDQ    $32, DX
	SUBQ    $4, CX
	CMPQ    CX, $4
	JGE     addloop

addtail:
	TESTQ CX, CX
	JZ    adddone
	FLAT_TAIL
	VMASKMOVPD (SI), Y15, Y0
	VMASKMOVPD (DX), Y15, Y1
	VADDPD     Y1, Y0, Y0
	VMASKMOVPD Y0, Y15, (DI)

adddone:
	VZEROUPPER
	RET

// func addChannelBiasAVX2(dst, src *float64, n, c, s, srcStride int, bias *float64)
//
// DI dst cursor (rows are contiguous), R13 image i's column in src, R14
// channel row of it, SI its cursor; R8 srcStride and R15 S in bytes; R9
// images left, R10 channel, R11 C, DX S, R12 bias, CX vectors left.
TEXT ·addChannelBiasAVX2(SB), NOSPLIT, $0-56
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), R13
	MOVQ n+16(FP), R9
	MOVQ c+24(FP), R11
	MOVQ s+32(FP), DX
	MOVQ srcStride+40(FP), R8
	MOVQ bias+48(FP), R12
	SHLQ $3, R8
	MOVQ DX, R15
	SHLQ $3, R15
	ROW_TAIL

acbimg:
	MOVQ R13, R14
	XORQ R10, R10

acbrow:
	VBROADCASTSD (R12)(R10*8), Y0
	MOVQ         R14, SI
	MOVQ         DX, CX
	SHRQ         $2, CX
	JZ           acbtail

acbvec:
	VMOVUPD (SI), Y1
	VADDPD  Y0, Y1, Y1
	VMOVUPD Y1, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    CX
	JNZ     acbvec

acbtail:
	TESTQ BX, BX
	JZ    acbnext
	VMASKMOVPD (SI), Y15, Y1
	VADDPD     Y0, Y1, Y1
	VMASKMOVPD Y1, Y15, (DI)
	ADDQ       BX, DI

acbnext:
	ADDQ R8, R14
	INCQ R10
	CMPQ R10, R11
	JLT  acbrow
	ADDQ R15, R13
	DECQ R9
	JNZ  acbimg
	VZEROUPPER
	RET

// func bnTrainAVX2(xhat, out, x *float64, rows, c, s int, mean, inv, gamma, beta *float64)
//
// Per lane: h = (x − mean)·inv, stored to xhat; out = gamma·h + beta.
// SI x, DI xhat, R8 out cursors; R9 rows left, R10 channel, R11 C, DX S;
// R12-R15 the constant slices; Y0-Y3 a row's mean, inv, gamma, beta.
TEXT ·bnTrainAVX2(SB), NOSPLIT, $0-80
	MOVQ xhat+0(FP), DI
	MOVQ out+8(FP), R8
	MOVQ x+16(FP), SI
	MOVQ rows+24(FP), R9
	MOVQ c+32(FP), R11
	MOVQ s+40(FP), DX
	MOVQ mean+48(FP), R12
	MOVQ inv+56(FP), R13
	MOVQ gamma+64(FP), R14
	MOVQ beta+72(FP), R15
	ROW_TAIL
	XORQ R10, R10

bntrow:
	VBROADCASTSD (R12)(R10*8), Y0
	VBROADCASTSD (R13)(R10*8), Y1
	VBROADCASTSD (R14)(R10*8), Y2
	VBROADCASTSD (R15)(R10*8), Y3
	MOVQ         DX, CX
	SHRQ         $2, CX
	JZ           bnttail

bntvec:
	VMOVUPD (SI), Y4
	VSUBPD  Y0, Y4, Y4
	VMULPD  Y1, Y4, Y4
	VMULPD  Y2, Y4, Y5
	VADDPD  Y3, Y5, Y5
	VMOVUPD Y4, (DI)
	VMOVUPD Y5, (R8)
	ADDQ    $32, SI
	ADDQ    $32, DI
	ADDQ    $32, R8
	DECQ    CX
	JNZ     bntvec

bnttail:
	TESTQ BX, BX
	JZ    bntnext
	VMASKMOVPD (SI), Y15, Y4
	VSUBPD     Y0, Y4, Y4
	VMULPD     Y1, Y4, Y4
	VMULPD     Y2, Y4, Y5
	VADDPD     Y3, Y5, Y5
	VMASKMOVPD Y4, Y15, (DI)
	VMASKMOVPD Y5, Y15, (R8)
	ADDQ       BX, SI
	ADDQ       BX, DI
	ADDQ       BX, R8

bntnext:
	INCQ R10
	CMPQ R10, R11
	JLT  bntsame
	XORQ R10, R10

bntsame:
	DECQ R9
	JNZ  bntrow
	VZEROUPPER
	RET

// func bnInferAVX2(out, x *float64, rows, c, s int, gamma, mean, inv, beta *float64)
//
// Per lane: out = ((gamma·(x − mean))·inv) + beta. SI x, DI out; the rest
// as in bnTrainAVX2, Y0-Y3 a row's gamma, mean, inv, beta.
TEXT ·bnInferAVX2(SB), NOSPLIT, $0-72
	MOVQ out+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ rows+16(FP), R9
	MOVQ c+24(FP), R11
	MOVQ s+32(FP), DX
	MOVQ gamma+40(FP), R12
	MOVQ mean+48(FP), R13
	MOVQ inv+56(FP), R14
	MOVQ beta+64(FP), R15
	ROW_TAIL
	XORQ R10, R10

bnirow:
	VBROADCASTSD (R12)(R10*8), Y0
	VBROADCASTSD (R13)(R10*8), Y1
	VBROADCASTSD (R14)(R10*8), Y2
	VBROADCASTSD (R15)(R10*8), Y3
	MOVQ         DX, CX
	SHRQ         $2, CX
	JZ           bnitail

bnivec:
	VMOVUPD (SI), Y4
	VSUBPD  Y1, Y4, Y4
	VMULPD  Y0, Y4, Y4
	VMULPD  Y2, Y4, Y4
	VADDPD  Y3, Y4, Y4
	VMOVUPD Y4, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    CX
	JNZ     bnivec

bnitail:
	TESTQ BX, BX
	JZ    bninext
	VMASKMOVPD (SI), Y15, Y4
	VSUBPD     Y1, Y4, Y4
	VMULPD     Y0, Y4, Y4
	VMULPD     Y2, Y4, Y4
	VADDPD     Y3, Y4, Y4
	VMASKMOVPD Y4, Y15, (DI)
	ADDQ       BX, SI
	ADDQ       BX, DI

bninext:
	INCQ R10
	CMPQ R10, R11
	JLT  bnisame
	XORQ R10, R10

bnisame:
	DECQ R9
	JNZ  bnirow
	VZEROUPPER
	RET

// func bnInputGradAVX2(dx, dy, xhat *float64, rows, c, s int, m float64, k, sumDy, sumDyXhat *float64)
//
// Per lane: dx = k·(((m·dy) − sumDy) − (xhat·sumDyXhat)). SI dy, R8 xhat,
// DI dx; Y6 m; Y0-Y2 a row's k, sumDy, sumDyXhat; the rest as in
// bnTrainAVX2.
TEXT ·bnInputGradAVX2(SB), NOSPLIT, $0-80
	MOVQ         dx+0(FP), DI
	MOVQ         dy+8(FP), SI
	MOVQ         xhat+16(FP), R8
	MOVQ         rows+24(FP), R9
	MOVQ         c+32(FP), R11
	MOVQ         s+40(FP), DX
	VBROADCASTSD m+48(FP), Y6
	MOVQ         k+56(FP), R12
	MOVQ         sumDy+64(FP), R13
	MOVQ         sumDyXhat+72(FP), R14
	ROW_TAIL
	XORQ         R10, R10

bngrow:
	VBROADCASTSD (R12)(R10*8), Y0
	VBROADCASTSD (R13)(R10*8), Y1
	VBROADCASTSD (R14)(R10*8), Y2
	MOVQ         DX, CX
	SHRQ         $2, CX
	JZ           bngtail

bngvec:
	VMOVUPD (SI), Y4
	VMULPD  Y6, Y4, Y4
	VSUBPD  Y1, Y4, Y4
	VMOVUPD (R8), Y5
	VMULPD  Y2, Y5, Y5
	VSUBPD  Y5, Y4, Y4
	VMULPD  Y0, Y4, Y4
	VMOVUPD Y4, (DI)
	ADDQ    $32, SI
	ADDQ    $32, R8
	ADDQ    $32, DI
	DECQ    CX
	JNZ     bngvec

bngtail:
	TESTQ BX, BX
	JZ    bngnext
	VMASKMOVPD (SI), Y15, Y4
	VMULPD     Y6, Y4, Y4
	VSUBPD     Y1, Y4, Y4
	VMASKMOVPD (R8), Y15, Y5
	VMULPD     Y2, Y5, Y5
	VSUBPD     Y5, Y4, Y4
	VMULPD     Y0, Y4, Y4
	VMASKMOVPD Y4, Y15, (DI)
	ADDQ       BX, SI
	ADDQ       BX, R8
	ADDQ       BX, DI

bngnext:
	INCQ R10
	CMPQ R10, R11
	JLT  bngsame
	XORQ R10, R10

bngsame:
	DECQ R9
	JNZ  bngrow
	VZEROUPPER
	RET
