//go:build amd64 && !race

#include "textflag.h"

// AVX2 implementation of the epilogue lanes in lanes.go. Every lane is one
// element and performs the Go loop's operations in its order, with VMULPD
// then VADDPD where the loop multiplies then adds (never an FMA, which
// would round once where the loop rounds twice). Lanes never meet. When
// both operands are NaN an operation returns its first source's payload,
// so the first source of each VSUBPD/VMULPD/VADDPD is the operand the
// compiled Go loop computes into: the left one of a difference, and of a
// sum or product mostly the freshly computed value rather than a channel
// constant (gamma·h, gamma·(x−mean), m·dy and k·(…) keep h, x−mean, dy and
// the bracket); the backward passes name their exceptions. TestLanesMatchGo
// pins those choices. Row passes broadcast a row's channel constants, run
// the row four lanes at a time and finish it under the VMASKMOVPD tail
// mask in Y15 (masked-out lanes are not loaded, not stored and never
// fault). The row loops are do-while: the Go wrappers never call with an
// empty extent.

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

// RELU_SETUP loads RELU_LANES' masks: Y14 = +0; for relu, Y12 = 0 and
// Y13 = every bit but the sign, else both all ones. Clobbers nothing else.
#define RELU_SETUP(relu) \
	VXORPD   Y14, Y14, Y14; \
	VPCMPEQQ Y13, Y13, Y13; \
	VMOVDQU  Y13, Y12;      \
	CMPB     relu, $0;      \
	JEQ      2(PC);         \
	VPSRLQ   $1, Y13, Y13;  \
	CMPB     relu, $0;      \
	JEQ      2(PC);         \
	VXORPD   Y12, Y12, Y12

// RELU_LANES applies reluAVX2's max(v, 0) to v in place when RELU_SETUP
// saw relu, and leaves v alone otherwise (the mask is then all ones).
// Clobbers tmp.
#define RELU_LANES(v, tmp) \
	VCMPPD $0x16, Y14, v, tmp; \
	VORPD  Y12, tmp, tmp;      \
	VANDPD Y13, tmp, tmp;      \
	VANDPD tmp, v, v

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

// func addReLUAVX2(dst, a, b *float64, n int)
//
// addAVX2's sum, then reluAVX2's max(·, 0) on it.
TEXT ·addReLUAVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ n+24(FP), CX
	VXORPD   Y14, Y14, Y14
	VPCMPEQQ Y13, Y13, Y13
	VPSRLQ   $1, Y13, Y13
	CMPQ CX, $4
	JLT  artail

arloop:
	VMOVUPD (SI), Y0
	VADDPD  (DX), Y0, Y0
	VCMPPD  $0x16, Y14, Y0, Y1
	VANDPD  Y13, Y1, Y1
	VANDPD  Y1, Y0, Y0
	VMOVUPD Y0, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	ADDQ    $32, DX
	SUBQ    $4, CX
	CMPQ    CX, $4
	JGE     arloop

artail:
	TESTQ CX, CX
	JZ    ardone
	FLAT_TAIL
	VMASKMOVPD (SI), Y15, Y0
	VMASKMOVPD (DX), Y15, Y1
	VADDPD     Y1, Y0, Y0
	VCMPPD     $0x16, Y14, Y0, Y1
	VANDPD     Y13, Y1, Y1
	VANDPD     Y1, Y0, Y0
	VMASKMOVPD Y0, Y15, (DI)

ardone:
	VZEROUPPER
	RET

// func fillRowsAVX2(dst *float64, ld, w int, vals *float64, rows int)
//
// DI a row's cursor, R8 its start, R9 ld in bytes, DX w, SI vals, R10
// rows left, CX full vectors left, BX and Y15 a row's tail.
TEXT ·fillRowsAVX2(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), R8
	MOVQ ld+8(FP), R9
	SHLQ $3, R9
	MOVQ w+16(FP), DX
	MOVQ vals+24(FP), SI
	MOVQ rows+32(FP), R10
	ROW_TAIL

fillrow:
	VBROADCASTSD (SI), Y0
	MOVQ         R8, DI
	MOVQ         DX, CX
	SHRQ         $2, CX
	JZ           filltail

fillvec:
	VMOVUPD Y0, (DI)
	ADDQ    $32, DI
	DECQ    CX
	JNZ     fillvec

filltail:
	TESTQ BX, BX
	JZ    fillnext
	VMASKMOVPD Y0, Y15, (DI)

fillnext:
	ADDQ $8, SI
	ADDQ R9, R8
	DECQ R10
	JNZ  fillrow
	VZEROUPPER
	RET

// The batch-norm row passes read a unit's channel-major pre-activation and
// write image-major rows. DI is the output cursor (its rows are contiguous
// in (image, channel) order), R13 image i's first element in x, SI the
// cursor in its row of channel R10; R8 steps SI from the end of one
// channel's row to the next one's, (ld − S)·8 bytes. R9 images left, R11
// C, DX S, BX and Y15 a row's tail; Y0-Y3 a row's constants.

// BN_TRAIN: h = (x − mean)·inv, out = gamma·h + beta; x in Y4, out in Y5.
#define BN_TRAIN \
	VSUBPD Y0, Y4, Y4; \
	VMULPD Y1, Y4, Y4; \
	VMULPD Y2, Y4, Y5; \
	VADDPD Y3, Y5, Y5; \
	RELU_LANES(Y5, Y6)

// func bnTrainAVX2(out, x *float64, ld, n, c, s int, relu bool, mean, inv, gamma, beta *float64)
//
// Y0-Y3 a row's mean, inv, gamma, beta; R12, R14, R15, AX their slices.
TEXT ·bnTrainAVX2(SB), NOSPLIT, $0-88
	MOVQ out+0(FP), DI
	MOVQ x+8(FP), R13
	MOVQ ld+16(FP), R8
	MOVQ n+24(FP), R9
	MOVQ c+32(FP), R11
	MOVQ s+40(FP), DX
	MOVQ mean+56(FP), R12
	MOVQ inv+64(FP), R14
	MOVQ gamma+72(FP), R15
	SUBQ DX, R8
	SHLQ $3, R8
	ROW_TAIL
	MOVQ beta+80(FP), AX
	RELU_SETUP(relu+48(FP))

bntimg:
	MOVQ R13, SI
	XORQ R10, R10

bntrow:
	VBROADCASTSD (R12)(R10*8), Y0
	VBROADCASTSD (R14)(R10*8), Y1
	VBROADCASTSD (R15)(R10*8), Y2
	VBROADCASTSD (AX)(R10*8), Y3
	MOVQ         DX, CX
	SHRQ         $2, CX
	JZ           bnttail

bntvec:
	VMOVUPD (SI), Y4
	BN_TRAIN
	VMOVUPD Y5, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    CX
	JNZ     bntvec

bnttail:
	TESTQ BX, BX
	JZ    bntnext
	VMASKMOVPD (SI), Y15, Y4
	BN_TRAIN
	VMASKMOVPD Y5, Y15, (DI)
	ADDQ       BX, SI
	ADDQ       BX, DI

bntnext:
	ADDQ R8, SI
	INCQ R10
	CMPQ R10, R11
	JLT  bntrow
	LEAQ (R13)(DX*8), R13
	DECQ R9
	JNZ  bntimg
	VZEROUPPER
	RET

// BN_INFER: out = ((gamma·(x − mean))·inv) + beta; x in Y4, out in Y4.
#define BN_INFER \
	VSUBPD Y1, Y4, Y4; \
	VMULPD Y0, Y4, Y4; \
	VMULPD Y2, Y4, Y4; \
	VADDPD Y3, Y4, Y4; \
	RELU_LANES(Y4, Y6)

// func bnInferAVX2(out, x *float64, ld, n, c, s int, relu bool, gamma, mean, inv, beta *float64)
//
// Y0-Y3 a row's gamma, mean, inv, beta; the rest as in bnTrainAVX2.
TEXT ·bnInferAVX2(SB), NOSPLIT, $0-88
	MOVQ out+0(FP), DI
	MOVQ x+8(FP), R13
	MOVQ ld+16(FP), R8
	MOVQ n+24(FP), R9
	MOVQ c+32(FP), R11
	MOVQ s+40(FP), DX
	MOVQ gamma+56(FP), R12
	MOVQ mean+64(FP), R14
	MOVQ inv+72(FP), R15
	SUBQ DX, R8
	SHLQ $3, R8
	ROW_TAIL
	MOVQ beta+80(FP), AX
	RELU_SETUP(relu+48(FP))

bniimg:
	MOVQ R13, SI
	XORQ R10, R10

bnirow:
	VBROADCASTSD (R12)(R10*8), Y0
	VBROADCASTSD (R14)(R10*8), Y1
	VBROADCASTSD (R15)(R10*8), Y2
	VBROADCASTSD (AX)(R10*8), Y3
	MOVQ         DX, CX
	SHRQ         $2, CX
	JZ           bnitail

bnivec:
	VMOVUPD (SI), Y4
	BN_INFER
	VMOVUPD Y4, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    CX
	JNZ     bnivec

bnitail:
	TESTQ BX, BX
	JZ    bninext
	VMASKMOVPD (SI), Y15, Y4
	BN_INFER
	VMASKMOVPD Y4, Y15, (DI)
	ADDQ       BX, SI
	ADDQ       BX, DI

bninext:
	ADDQ R8, SI
	INCQ R10
	CMPQ R10, R11
	JLT  bnirow
	LEAQ (R13)(DX*8), R13
	DECQ R9
	JNZ  bniimg
	VZEROUPPER
	RET

// The backward passes of a unit run one block of four channels c0..c0+3
// over every image: row j of a block is channel c0+j, four pixels a vector,
// its constants read from the block's pack (BNGrad.pack: per channel eight
// vectors — mean, inv, gamma, beta, k, sumDy, sumDyXhat and the ReLU OR
// mask — of one constant broadcast, 256 bytes; row j's at j·256). A sum
// over a channel's pixels is a chain, so the four rows' vectors are
// transposed (TRANSPOSE4) into four pixel vectors whose lanes are the four
// channels, and each is added in pixel order: lane j of the accumulator is
// channel c0+j's chain, p ascending, as in the Go loop. A pixel tail of
// S mod 4 is loaded and stored under Y15 and adds only its own pixels.

// TRANSPOSE4 transposes the 4×4 block of rows a, b, c, d in place, so
// that a = [a0 b0 c0 d0], b = [a1 b1 c1 d1], …, through tmp.
#define TRANSPOSE4(a, b, c, d, tmp) \
	VUNPCKLPD  b, a, tmp;          \
	VUNPCKHPD  b, a, b;            \
	VMOVAPD    tmp, a;             \
	VUNPCKLPD  d, c, tmp;          \
	VUNPCKHPD  d, c, d;            \
	VMOVAPD    tmp, c;             \
	VPERM2F128 $0x20, c, a, tmp;   \
	VPERM2F128 $0x31, c, a, c;     \
	VMOVAPD    tmp, a;             \
	VPERM2F128 $0x20, d, b, tmp;   \
	VPERM2F128 $0x31, d, b, d;     \
	VMOVAPD    tmp, b

// GRAD_D forms a row's h = (x − mean)·inv from x in h, and into d the row's
// dy at dyop masked by the rectifier's input gamma·h + beta (sign-bit
// test, then ORed with the pack's ReLU mask: all ones without the
// rectifier); off is the row's pack offset. Y14 holds +0.
#define GRAD_D(off, dyop, h, d) \
	VSUBPD   (off+0)(R15), h, h;   \
	VMULPD   (off+32)(R15), h, h;  \
	VMULPD   (off+64)(R15), h, d;  \
	VADDPD   (off+96)(R15), d, d;  \
	VPCMPGTQ Y14, d, d;            \
	VORPD    (off+224)(R15), d, d; \
	VANDPD   dyop, d, d

// GRAD_OUT forms a row's k·(((m·d) − sumDy) − (h·sumDyXhat)) into out
// from GRAD_D's h in Y4 and d in Y5; Y13 holds m.
#define GRAD_OUT(off, out) \
	VMULPD Y13, Y5, Y5;            \
	VSUBPD (off+160)(R15), Y5, Y5; \
	VMULPD (off+192)(R15), Y4, Y4; \
	VSUBPD Y4, Y5, Y5;             \
	VMULPD (off+128)(R15), Y5, out

// GRAD_ROW is one full row of the input-gradient pass: x at xop, dy at
// dyop, the result in out and at dYop.
#define GRAD_ROW(off, xop, dyop, dYop, out) \
	VMOVUPD xop, Y4;             \
	GRAD_D(off, dyop, Y4, Y5);   \
	GRAD_OUT(off, out);          \
	VMOVUPD out, dYop

// GRAD_ROW_TAIL is GRAD_ROW on the lanes of Y15.
#define GRAD_ROW_TAIL(off, xop, dyop, dYop, out) \
	VMASKMOVPD xop, Y15, Y4;     \
	VMASKMOVPD dyop, Y15, Y6;    \
	GRAD_D(off, Y6, Y4, Y5);     \
	GRAD_OUT(off, out);          \
	VMASKMOVPD out, Y15, dYop

// GRAD_SETUP loads what both backward passes share: R15 the pack, SI x
// and R8 its row stride in bytes, DI dy, R10 S in bytes and R11 the dy
// jump from one image's block to the next's, (C − 1)·S·8; R9 the image
// count; BX the pixel tail S mod 4 and Y15 its lanes; Y14 +0. Clobbers AX,
// CX.
#define GRAD_SETUP(xarg, dyarg, packarg, ldarg, narg, carg, sarg) \
	MOVQ    xarg, SI;                  \
	MOVQ    dyarg, DI;                 \
	MOVQ    packarg, R15;              \
	MOVQ    ldarg, R8;                 \
	SHLQ    $3, R8;                    \
	MOVQ    narg, R9;                  \
	MOVQ    sarg, R10;                 \
	MOVQ    carg, R11;                 \
	DECQ    R11;                       \
	IMULQ   R10, R11;                  \
	SHLQ    $3, R11;                   \
	MOVQ    R10, BX;                   \
	ANDQ    $3, BX;                    \
	MOVQ    BX, AX;                    \
	NEGQ    AX;                        \
	LEAQ    lnMask<>+32(SB), CX;       \
	VMOVDQU (CX)(AX*8), Y15;           \
	SHLQ    $3, R10;                   \
	VXORPD  Y14, Y14, Y14

// func bnGradRowsAVX2(dY, dYT, x, dy, pack, bGrad *float64, fresh *uint64, ld, dyld, n, c, s int, m float64)
//
// One block of the input-gradient pass: dY, dYT, x, dy, pack and bGrad
// point at channel c0's first element. Cursors (GRAD_SETUP's and): DX dY
// (row j at +j·dyld), R13 dYT (pixel q at +q·C); R12, R14 those strides in
// bytes; CX full vectors left, AX a row-3 address. Y12 the block's four
// bias-gradient chains, Y13 m. After each image the chains join bGrad
// (chain + bGrad, the Go loop's operand order) on the lanes fresh masks:
// channels an earlier block of a count that is not a multiple of four did
// not cover.
TEXT ·bnGradRowsAVX2(SB), NOSPLIT, $0-104
	GRAD_SETUP(x+16(FP), dy+24(FP), pack+32(FP), ld+56(FP), n+72(FP), c+80(FP), s+88(FP))
	MOVQ         dY+0(FP), DX
	MOVQ         dYT+8(FP), R13
	MOVQ         dyld+64(FP), R12
	SHLQ         $3, R12
	MOVQ         c+80(FP), R14
	SHLQ         $3, R14
	VBROADCASTSD m+96(FP), Y13

bgimg:
	VXORPD Y12, Y12, Y12
	MOVQ   s+88(FP), CX
	SHRQ   $2, CX
	JZ     bgtail

bgvec:
	GRAD_ROW(0, (SI), (DI), (DX), Y0)
	GRAD_ROW(256, (SI)(R8*1), (DI)(R10*1), (DX)(R12*1), Y1)
	GRAD_ROW(512, (SI)(R8*2), (DI)(R10*2), (DX)(R12*2), Y2)
	LEAQ    (SI)(R8*2), AX
	VMOVUPD (AX)(R8*1), Y4
	LEAQ    (DI)(R10*2), AX
	GRAD_D(768, (AX)(R10*1), Y4, Y5)
	GRAD_OUT(768, Y3)
	LEAQ    (DX)(R12*2), AX
	VMOVUPD Y3, (AX)(R12*1)
	TRANSPOSE4(Y0, Y1, Y2, Y3, Y4)
	LEAQ    (R13)(R14*2), AX
	VMOVUPD Y0, (R13)
	VMOVUPD Y1, (R13)(R14*1)
	VMOVUPD Y2, (AX)
	VMOVUPD Y3, (AX)(R14*1)
	VADDPD  Y0, Y12, Y12
	VADDPD  Y1, Y12, Y12
	VADDPD  Y2, Y12, Y12
	VADDPD  Y3, Y12, Y12
	ADDQ    $32, SI
	ADDQ    $32, DI
	ADDQ    $32, DX
	LEAQ    (R13)(R14*4), R13
	DECQ    CX
	JNZ     bgvec

bgtail:
	TESTQ BX, BX
	JZ    bgjoin
	GRAD_ROW_TAIL(0, (SI), (DI), (DX), Y0)
	GRAD_ROW_TAIL(256, (SI)(R8*1), (DI)(R10*1), (DX)(R12*1), Y1)
	GRAD_ROW_TAIL(512, (SI)(R8*2), (DI)(R10*2), (DX)(R12*2), Y2)
	LEAQ       (SI)(R8*2), AX
	VMASKMOVPD (AX)(R8*1), Y15, Y4
	LEAQ       (DI)(R10*2), AX
	VMASKMOVPD (AX)(R10*1), Y15, Y6
	GRAD_D(768, Y6, Y4, Y5)
	GRAD_OUT(768, Y3)
	LEAQ       (DX)(R12*2), AX
	VMASKMOVPD Y3, Y15, (AX)(R12*1)
	TRANSPOSE4(Y0, Y1, Y2, Y3, Y4)
	VMOVUPD    Y0, (R13)
	VADDPD     Y0, Y12, Y12
	ADDQ       R14, R13
	CMPQ       BX, $1
	JEQ        bgtailend
	VMOVUPD    Y1, (R13)
	VADDPD     Y1, Y12, Y12
	ADDQ       R14, R13
	CMPQ       BX, $2
	JEQ        bgtailend
	VMOVUPD    Y2, (R13)
	VADDPD     Y2, Y12, Y12
	ADDQ       R14, R13

bgtailend:
	LEAQ (SI)(BX*8), SI
	LEAQ (DI)(BX*8), DI
	LEAQ (DX)(BX*8), DX

bgjoin:
	MOVQ       fresh+48(FP), AX
	VMOVDQU    (AX), Y8
	MOVQ       bGrad+40(FP), AX
	VMASKMOVPD (AX), Y8, Y9
	VADDPD     Y9, Y12, Y9
	VMASKMOVPD Y9, Y8, (AX)
	ADDQ       R11, DI
	DECQ       R9
	JNZ        bgimg
	VZEROUPPER
	RET

// SUM_D is GRAD_D for the reductions, whose Go loop forms the
// rectifier's input as gamma·h (gamma the first source) and the product
// as h·d: from x in Y8, d into d and h·d into e.
#define SUM_D(off, dyop, d, e) \
	VSUBPD   (off+0)(R15), Y8, Y8;  \
	VMULPD   (off+32)(R15), Y8, Y8; \
	VMOVUPD  (off+64)(R15), d;      \
	VMULPD   Y8, d, d;              \
	VADDPD   (off+96)(R15), d, d;   \
	VPCMPGTQ Y14, d, d;             \
	VORPD    (off+224)(R15), d, d;  \
	VANDPD   dyop, d, d;            \
	VMULPD   d, Y8, e

// SUM_ROW is one full row of the reductions.
#define SUM_ROW(off, xop, dyop, d, e) \
	VMOVUPD xop, Y8;         \
	SUM_D(off, dyop, d, e)

// SUM_ROW_TAIL is SUM_ROW on the lanes of Y15.
#define SUM_ROW_TAIL(off, xop, dyop, d, e) \
	VMASKMOVPD xop, Y15, Y8;   \
	VMASKMOVPD dyop, Y15, Y10; \
	SUM_D(off, Y10, d, e)

// SUM_PIXEL adds pixel q's column: Σd += dq, Σd·h += eq.
#define SUM_PIXEL(dq, eq) \
	VADDPD dq, Y12, Y12; \
	VADDPD eq, Y13, Y13

// func bnGradSumsAVX2(sumDy, sumDyXhat, x, dy, pack *float64, ld, n, c, s int)
//
// One block of the reductions: sumDy, sumDyXhat, x, dy and pack point at
// channel c0's first element; the rest as GRAD_SETUP leaves it, CX full
// vectors left, AX a row-3 address. Rows' d in Y0-Y3 and h·d in Y4-Y7,
// transposed; Y12 and Y13 the block's four Σd and Σd·h chains, stored
// whole (a block overlapping the one before stores its channels' sums
// again, with the same bits).
TEXT ·bnGradSumsAVX2(SB), NOSPLIT, $0-72
	GRAD_SETUP(x+16(FP), dy+24(FP), pack+32(FP), ld+40(FP), n+48(FP), c+56(FP), s+64(FP))
	VXORPD Y12, Y12, Y12
	VXORPD Y13, Y13, Y13

sgimg:
	MOVQ s+64(FP), CX
	SHRQ $2, CX
	JZ   sgtail

sgvec:
	SUM_ROW(0, (SI), (DI), Y0, Y4)
	SUM_ROW(256, (SI)(R8*1), (DI)(R10*1), Y1, Y5)
	SUM_ROW(512, (SI)(R8*2), (DI)(R10*2), Y2, Y6)
	LEAQ    (SI)(R8*2), AX
	VMOVUPD (AX)(R8*1), Y8
	LEAQ    (DI)(R10*2), AX
	SUM_D(768, (AX)(R10*1), Y3, Y7)
	TRANSPOSE4(Y0, Y1, Y2, Y3, Y11)
	TRANSPOSE4(Y4, Y5, Y6, Y7, Y11)
	SUM_PIXEL(Y0, Y4)
	SUM_PIXEL(Y1, Y5)
	SUM_PIXEL(Y2, Y6)
	SUM_PIXEL(Y3, Y7)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    CX
	JNZ     sgvec

sgtail:
	TESTQ BX, BX
	JZ    sgnext
	SUM_ROW_TAIL(0, (SI), (DI), Y0, Y4)
	SUM_ROW_TAIL(256, (SI)(R8*1), (DI)(R10*1), Y1, Y5)
	SUM_ROW_TAIL(512, (SI)(R8*2), (DI)(R10*2), Y2, Y6)
	LEAQ       (SI)(R8*2), AX
	VMASKMOVPD (AX)(R8*1), Y15, Y8
	LEAQ       (DI)(R10*2), AX
	VMASKMOVPD (AX)(R10*1), Y15, Y10
	SUM_D(768, Y10, Y3, Y7)
	TRANSPOSE4(Y0, Y1, Y2, Y3, Y11)
	TRANSPOSE4(Y4, Y5, Y6, Y7, Y11)
	SUM_PIXEL(Y0, Y4)
	CMPQ       BX, $1
	JEQ        sgtailend
	SUM_PIXEL(Y1, Y5)
	CMPQ       BX, $2
	JEQ        sgtailend
	SUM_PIXEL(Y2, Y6)

sgtailend:
	LEAQ (SI)(BX*8), SI
	LEAQ (DI)(BX*8), DI

sgnext:
	ADDQ R11, DI
	DECQ R9
	JNZ  sgimg
	MOVQ    sumDy+0(FP), AX
	VMOVUPD Y12, (AX)
	MOVQ    sumDyXhat+8(FP), AX
	VMOVUPD Y13, (AX)
	VZEROUPPER
	RET
