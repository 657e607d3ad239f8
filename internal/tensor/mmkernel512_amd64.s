//go:build amd64 && !race

#include "textflag.h"

// AVX-512 implementation of the GEMM micro-kernel contract in mmkernel.go,
// the same six strips as mmkernel_amd64.s with ZMM registers: eight lanes
// where AVX2 has four, built the same way from macros and with the same
// register convention, Z for Y. The float-bits argument sits beside the
// multiply-add macros.
//
// The four-row strips take 16-column blocks (row r in Z2r, Z2r+1: eight
// accumulators); the one-row strips take 32-column blocks (Z0-Z3: four
// independent chains). The columns a block does not cover run under an
// opmask: a zeroing-masked load (VMOVUPD.Z) reads a masked-out lane as
// +0 and, the architecture guarantees, touches no memory there (so it
// cannot fault); the lane computes a dead product and sum; a masked store
// leaves its memory alone. A one-row strip runs its 1-31 tail columns as
// one pass under four opmasks (K1-K4, one per register), which costs what
// a full block costs: the pass is bound by its four chains' latency. A
// four-row strip runs its 1-15 tail columns in steps of eight under one
// opmask (K1), so a tail of up to eight — the 6- and 8-column weight
// gradients of the quick profiles' narrow layers among them — does half a
// block's work rather than a full one.
//
// K1 = (1<<CX)-1 (CX the columns left, < 32); an opmask register is read
// for as many bits as the instruction has lanes, so K1 has min(CX, 8)
// lanes set, and K2-K4 take the next bytes. The p loops are do-while; the
// Go wrapper never calls with kw == 0 or jw == 0.

// TAIL_MASKS sets K1-K4 to the lanes of CX columns, 0 < CX < 32.
// Clobbers AX.
#define TAIL_MASKS \
	MOVL  $1, AX;  \
	SHLL  CX, AX;  \
	DECL  AX;      \
	KMOVW AX, K1;  \
	SHRL  $8, AX;  \
	KMOVW AX, K2;  \
	SHRL  $8, AX;  \
	KMOVW AX, K3;  \
	SHRL  $8, AX;  \
	KMOVW AX, K4

// TAIL_MASK sets K1 to the lanes of min(CX, 8) columns, 0 < CX < 32.
// Clobbers AX.
#define TAIL_MASK \
	MOVL  $1, AX; \
	SHLL  CX, AX; \
	DECL  AX;     \
	KMOVW AX, K1

// ZERO4, ZERO8 and ZERO_EVEN start a block's chains from +0: the four
// accumulators of a one-row block, all eight of a four-row block two
// vectors wide, the four of a four-row block one vector wide.
#define ZERO4 \
	VXORPD Z0, Z0, Z0; \
	VXORPD Z1, Z1, Z1; \
	VXORPD Z2, Z2, Z2; \
	VXORPD Z3, Z3, Z3

#define ZERO8 \
	ZERO4;             \
	VXORPD Z4, Z4, Z4; \
	VXORPD Z5, Z5, Z5; \
	VXORPD Z6, Z6, Z6; \
	VXORPD Z7, Z7, Z7

#define ZERO_EVEN \
	VXORPD Z0, Z0, Z0; \
	VXORPD Z2, Z2, Z2; \
	VXORPD Z4, Z4, Z4; \
	VXORPD Z6, Z6, Z6

// A_STRIDED and A_ROWS apply M to the four a operands of step p, as in
// mmkernel_amd64.s; BCAST4 broadcasts them into Z8-Z11.
#define A_STRIDED(M) M((AX), (AX)(R9*1), (AX)(R9*2), (AX)(R14*1))
#define A_ROWS(M) M((SI)(R12*8), (R9)(R12*8), (R10)(R12*8), (R14)(R12*8))

#define BCAST4(A0, A1, A2, A3) \
	VBROADCASTSD A0, Z8;  \
	VBROADCASTSD A1, Z9;  \
	VBROADCASTSD A2, Z10; \
	VBROADCASTSD A3, Z11

// The multiply-add chains, the only place a product meets a sum. The
// float-bits argument is mmkernel_amd64.s's, unchanged: a lane is one
// output element whose chain starts from +0 (ZERO*), runs p ascending with
// every product rounded (VMULPD) before it is added (VADDPD), and joins out
// once after the chain (ADDSTORE*). No FMA, no horizontal or k-direction
// reduction, so a lane ends on the scalar loop's bits; a masked-out lane's
// dead sum is never stored.
//
// MULADD_ROW adds the b row Z12-Z13 times the broadcast A to the chains
// C0, C1 of one row; MULADD4x2 does that for all four rows. MULADD4x1 is
// the four rows over the one b vector Z12, the products overwriting the
// broadcasts; MULADD1x4 one row (broadcast Z8) over four b vectors B0-B3.
#define MULADD_ROW(A, C0, C1) \
	VMULPD Z12, A, Z14; \
	VMULPD Z13, A, Z15; \
	VADDPD Z14, C0, C0; \
	VADDPD Z15, C1, C1

#define MULADD4x2 \
	MULADD_ROW(Z8, Z0, Z1);  \
	MULADD_ROW(Z9, Z2, Z3);  \
	MULADD_ROW(Z10, Z4, Z5); \
	MULADD_ROW(Z11, Z6, Z7)

#define MULADD4x1 \
	VMULPD Z12, Z8, Z8;   \
	VMULPD Z12, Z9, Z9;   \
	VMULPD Z12, Z10, Z10; \
	VMULPD Z12, Z11, Z11; \
	VADDPD Z8, Z0, Z0;    \
	VADDPD Z9, Z2, Z2;    \
	VADDPD Z10, Z4, Z4;   \
	VADDPD Z11, Z6, Z6

#define MULADD1x4(B0, B1, B2, B3) \
	VMULPD B0, Z8, Z12; \
	VMULPD B1, Z8, Z13; \
	VMULPD B2, Z8, Z14; \
	VMULPD B3, Z8, Z15; \
	VADDPD Z12, Z0, Z0; \
	VADDPD Z13, Z1, Z1; \
	VADDPD Z14, Z2, Z2; \
	VADDPD Z15, Z3, Z3

// The epilogues: each chain joins out once, read, added and stored at the
// out cursor DI. The four-row forms take out rows at DI, DI+R8, DI+2*R8
// and DI+OS3 (OS3 = 3*ostride); ADDSTORE4x2 covers sixteen columns,
// ADDSTORE4x1 up to eight under K1 (Z8-Z11 as scratch). ADDSTORE1x4 covers
// 32 columns of one row, ADDSTORE1x4_MASKED up to 31 under K1-K4 (Z4-Z7 as
// scratch).
#define ADDSTORE4x2(OS3) \
	VADDPD  (DI), Z0, Z0;          \
	VADDPD  64(DI), Z1, Z1;        \
	VADDPD  (DI)(R8*1), Z2, Z2;    \
	VADDPD  64(DI)(R8*1), Z3, Z3;  \
	VADDPD  (DI)(R8*2), Z4, Z4;    \
	VADDPD  64(DI)(R8*2), Z5, Z5;  \
	VADDPD  (DI)(OS3*1), Z6, Z6;   \
	VADDPD  64(DI)(OS3*1), Z7, Z7; \
	VMOVUPD Z0, (DI);              \
	VMOVUPD Z1, 64(DI);            \
	VMOVUPD Z2, (DI)(R8*1);        \
	VMOVUPD Z3, 64(DI)(R8*1);      \
	VMOVUPD Z4, (DI)(R8*2);        \
	VMOVUPD Z5, 64(DI)(R8*2);      \
	VMOVUPD Z6, (DI)(OS3*1);       \
	VMOVUPD Z7, 64(DI)(OS3*1)

#define ADDSTORE4x1(OS3) \
	VMOVUPD.Z (DI), K1, Z8;         \
	VMOVUPD.Z (DI)(R8*1), K1, Z9;   \
	VMOVUPD.Z (DI)(R8*2), K1, Z10;  \
	VMOVUPD.Z (DI)(OS3*1), K1, Z11; \
	VADDPD    Z8, Z0, Z0;           \
	VADDPD    Z9, Z2, Z2;           \
	VADDPD    Z10, Z4, Z4;          \
	VADDPD    Z11, Z6, Z6;          \
	VMOVUPD   Z0, K1, (DI);         \
	VMOVUPD   Z2, K1, (DI)(R8*1);   \
	VMOVUPD   Z4, K1, (DI)(R8*2);   \
	VMOVUPD   Z6, K1, (DI)(OS3*1)

#define ADDSTORE1x4 \
	VADDPD  (DI), Z0, Z0;    \
	VADDPD  64(DI), Z1, Z1;  \
	VADDPD  128(DI), Z2, Z2; \
	VADDPD  192(DI), Z3, Z3; \
	VMOVUPD Z0, (DI);        \
	VMOVUPD Z1, 64(DI);      \
	VMOVUPD Z2, 128(DI);     \
	VMOVUPD Z3, 192(DI)

#define ADDSTORE1x4_MASKED \
	VMOVUPD.Z (DI), K1, Z4;    \
	VMOVUPD.Z 64(DI), K2, Z5;  \
	VMOVUPD.Z 128(DI), K3, Z6; \
	VMOVUPD.Z 192(DI), K4, Z7; \
	VADDPD    Z4, Z0, Z0;      \
	VADDPD    Z5, Z1, Z1;      \
	VADDPD    Z6, Z2, Z2;      \
	VADDPD    Z7, Z3, Z3;      \
	VMOVUPD   Z0, K1, (DI);    \
	VMOVUPD   Z1, K2, 64(DI);  \
	VMOVUPD   Z2, K3, 128(DI); \
	VMOVUPD   Z3, K4, 192(DI)

// func mmStrip4AVX512(out *float64, ostride int, a *float64, aRow, aK int, b *float64, bstride, kw, jw int)
//
// Registers as in mmStrip4AVX2.
TEXT ·mmStrip4AVX512(SB), NOSPLIT, $0-72
	MOVQ out+0(FP), DI
	MOVQ ostride+8(FP), R8
	MOVQ a+16(FP), SI
	MOVQ aRow+24(FP), R9
	MOVQ aK+32(FP), R10
	MOVQ b+40(FP), DX
	MOVQ bstride+48(FP), R11
	MOVQ kw+56(FP), R12
	MOVQ jw+64(FP), CX
	SHLQ $3, R8
	SHLQ $3, R9
	SHLQ $3, R10
	SHLQ $3, R11
	LEAQ (R8)(R8*2), R13
	LEAQ (R9)(R9*2), R14
	CMPQ CX, $16
	JLT  tail4

wide4:
	ZERO8
	MOVQ SI, AX
	MOVQ DX, BX
	MOVQ R12, R15

wide4p:
	VMOVUPD (BX), Z12
	VMOVUPD 64(BX), Z13
	A_STRIDED(BCAST4)
	MULADD4x2
	ADDQ    R10, AX
	ADDQ    R11, BX
	DECQ    R15
	JNZ     wide4p

	ADDSTORE4x2(R13)
	ADDQ $128, DI
	ADDQ $128, DX
	SUBQ $16, CX
	CMPQ CX, $16
	JGE  wide4

tail4:
	TESTQ CX, CX
	JLE   done4
	TAIL_MASK
	ZERO_EVEN
	MOVQ  SI, AX
	MOVQ  DX, BX
	MOVQ  R12, R15

tail4p:
	VMOVUPD.Z (BX), K1, Z12
	A_STRIDED(BCAST4)
	MULADD4x1
	ADDQ      R10, AX
	ADDQ      R11, BX
	DECQ      R15
	JNZ       tail4p

	ADDSTORE4x1(R13)
	ADDQ $64, DI
	ADDQ $64, DX
	SUBQ $8, CX
	JMP  tail4

done4:
	VZEROUPPER
	RET

// func mmStrip1AVX512(out *float64, a *float64, aK int, b *float64, bstride, kw, jw int)
//
// The one-row strip: 32 columns in four chains (Z0-Z3). Registers as in
// mmStrip1AVX2.
TEXT ·mmStrip1AVX512(SB), NOSPLIT, $0-56
	MOVQ out+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ aK+16(FP), R10
	MOVQ b+24(FP), DX
	MOVQ bstride+32(FP), R11
	MOVQ kw+40(FP), R12
	MOVQ jw+48(FP), CX
	SHLQ $3, R10
	SHLQ $3, R11
	CMPQ CX, $32
	JLT  tail1

wide1:
	ZERO4
	MOVQ SI, AX
	MOVQ DX, BX
	MOVQ R12, R15

wide1p:
	VBROADCASTSD (AX), Z8
	MULADD1x4((BX), 64(BX), 128(BX), 192(BX))
	ADDQ         R10, AX
	ADDQ         R11, BX
	DECQ         R15
	JNZ          wide1p

	ADDSTORE1x4
	ADDQ $256, DI
	ADDQ $256, DX
	SUBQ $32, CX
	CMPQ CX, $32
	JGE  wide1

tail1:
	TESTQ CX, CX
	JLE   done1
	TAIL_MASKS
	ZERO4
	MOVQ  SI, AX
	MOVQ  DX, BX
	MOVQ  R12, R15

tail1p:
	VMOVUPD.Z    (BX), K1, Z4
	VMOVUPD.Z    64(BX), K2, Z5
	VMOVUPD.Z    128(BX), K3, Z6
	VMOVUPD.Z    192(BX), K4, Z7
	VBROADCASTSD (AX), Z8
	MULADD1x4(Z4, Z5, Z6, Z7)
	ADDQ         R10, AX
	ADDQ         R11, BX
	DECQ         R15
	JNZ          tail1p

	ADDSTORE1x4_MASKED

done1:
	VZEROUPPER
	RET

// func mmShiftStrip4AVX512(out *float64, ostride int, a *float64, aRow, aK int, b *float64, mask *uint64, tab *int, kw, jw int)
//
// mmKernelShift's four-row strip: mmStrip4AVX512 with row p of b loaded at
// tab[2p] and ANDed (VANDPD, bitwise: a lane is b's bits or +0) with the
// mask row at tab[2p+1]. The tail loads both rows under K1. Registers as
// in mmShiftStrip4AVX2.
TEXT ·mmShiftStrip4AVX512(SB), NOSPLIT, $0-80
	MOVQ out+0(FP), DI
	MOVQ ostride+8(FP), R8
	MOVQ a+16(FP), SI
	MOVQ aRow+24(FP), R9
	MOVQ aK+32(FP), R10
	MOVQ b+40(FP), DX
	MOVQ mask+48(FP), R11
	MOVQ tab+56(FP), R12
	MOVQ jw+72(FP), CX
	SHLQ $3, R8
	SHLQ $3, R9
	SHLQ $3, R10
	LEAQ (R9)(R9*2), R14
	CMPQ CX, $16
	JLT  tail4s

wide4s:
	ZERO8
	MOVQ SI, AX
	MOVQ R12, BX
	MOVQ kw+64(FP), R15

wide4sp:
	MOVQ    (BX), R13
	VMOVUPD (DX)(R13*8), Z12
	VMOVUPD 64(DX)(R13*8), Z13
	MOVQ    8(BX), R13
	VANDPD  (R11)(R13*8), Z12, Z12
	VANDPD  64(R11)(R13*8), Z13, Z13
	A_STRIDED(BCAST4)
	MULADD4x2
	ADDQ    R10, AX
	ADDQ    $16, BX
	DECQ    R15
	JNZ     wide4sp

	LEAQ (R8)(R8*2), R13
	ADDSTORE4x2(R13)
	ADDQ $128, DI
	ADDQ $128, DX
	ADDQ $128, R11
	SUBQ $16, CX
	CMPQ CX, $16
	JGE  wide4s

tail4s:
	TESTQ CX, CX
	JLE   done4s
	TAIL_MASK
	ZERO_EVEN
	MOVQ  SI, AX
	MOVQ  R12, BX
	MOVQ  kw+64(FP), R15

tail4sp:
	MOVQ      (BX), R13
	VMOVUPD.Z (DX)(R13*8), K1, Z12
	MOVQ      8(BX), R13
	VMOVUPD.Z (R11)(R13*8), K1, Z14
	VANDPD    Z14, Z12, Z12
	A_STRIDED(BCAST4)
	MULADD4x1
	ADDQ      R10, AX
	ADDQ      $16, BX
	DECQ      R15
	JNZ       tail4sp

	LEAQ (R8)(R8*2), R13
	ADDSTORE4x1(R13)
	ADDQ $64, DI
	ADDQ $64, DX
	ADDQ $64, R11
	SUBQ $8, CX
	JMP  tail4s

done4s:
	VZEROUPPER
	RET

// func mmShiftStrip1AVX512(out *float64, a *float64, aK int, b *float64, mask *uint64, tab *int, kw, jw int)
//
// The one-row strip of mmKernelShift, 32 columns in four chains as
// mmStrip1AVX512. Registers as in mmShiftStrip4AVX512; Z4-Z7 the masked b
// row, Z12-Z15 the mask row in the tail, then products.
TEXT ·mmShiftStrip1AVX512(SB), NOSPLIT, $0-64
	MOVQ out+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ aK+16(FP), R10
	MOVQ b+24(FP), DX
	MOVQ mask+32(FP), R11
	MOVQ tab+40(FP), R12
	MOVQ jw+56(FP), CX
	SHLQ $3, R10
	CMPQ CX, $32
	JLT  tail1s

wide1s:
	ZERO4
	MOVQ SI, AX
	MOVQ R12, BX
	MOVQ kw+48(FP), R15

wide1sp:
	MOVQ         (BX), R13
	VMOVUPD      (DX)(R13*8), Z4
	VMOVUPD      64(DX)(R13*8), Z5
	VMOVUPD      128(DX)(R13*8), Z6
	VMOVUPD      192(DX)(R13*8), Z7
	MOVQ         8(BX), R13
	VANDPD       (R11)(R13*8), Z4, Z4
	VANDPD       64(R11)(R13*8), Z5, Z5
	VANDPD       128(R11)(R13*8), Z6, Z6
	VANDPD       192(R11)(R13*8), Z7, Z7
	VBROADCASTSD (AX), Z8
	MULADD1x4(Z4, Z5, Z6, Z7)
	ADDQ         R10, AX
	ADDQ         $16, BX
	DECQ         R15
	JNZ          wide1sp

	ADDSTORE1x4
	ADDQ $256, DI
	ADDQ $256, DX
	ADDQ $256, R11
	SUBQ $32, CX
	CMPQ CX, $32
	JGE  wide1s

tail1s:
	TESTQ CX, CX
	JLE   done1s
	TAIL_MASKS
	ZERO4
	MOVQ  SI, AX
	MOVQ  R12, BX
	MOVQ  kw+48(FP), R15

tail1sp:
	MOVQ         (BX), R13
	VMOVUPD.Z    (DX)(R13*8), K1, Z4
	VMOVUPD.Z    64(DX)(R13*8), K2, Z5
	VMOVUPD.Z    128(DX)(R13*8), K3, Z6
	VMOVUPD.Z    192(DX)(R13*8), K4, Z7
	MOVQ         8(BX), R13
	VMOVUPD.Z    (R11)(R13*8), K1, Z12
	VMOVUPD.Z    64(R11)(R13*8), K2, Z13
	VMOVUPD.Z    128(R11)(R13*8), K3, Z14
	VMOVUPD.Z    192(R11)(R13*8), K4, Z15
	VANDPD       Z12, Z4, Z4
	VANDPD       Z13, Z5, Z5
	VANDPD       Z14, Z6, Z6
	VANDPD       Z15, Z7, Z7
	VBROADCASTSD (AX), Z8
	MULADD1x4(Z4, Z5, Z6, Z7)
	ADDQ         R10, AX
	ADDQ         $16, BX
	DECQ         R15
	JNZ          tail1sp

	ADDSTORE1x4_MASKED

done1s:
	VZEROUPPER
	RET

// func mmRowsStrip4AVX512(out *float64, ostride int, a *float64, rowOff, pOff *int, b *float64, bstride, kw, jw int)
//
// mmKernelRows' four-row strip: mmStrip4AVX512 with row r of a based at
// a+rowOff[r] and step p at pOff[p] from each base; pOff[p] is loaded once
// per p for all four rows. Registers as in mmRowsStrip4AVX2.
TEXT ·mmRowsStrip4AVX512(SB), NOSPLIT, $0-72
	MOVQ out+0(FP), DI
	MOVQ ostride+8(FP), R8
	MOVQ a+16(FP), AX
	MOVQ rowOff+24(FP), BX
	MOVQ pOff+32(FP), R13
	MOVQ b+40(FP), DX
	MOVQ bstride+48(FP), R11
	MOVQ jw+64(FP), CX
	MOVQ (BX), SI
	MOVQ 8(BX), R9
	MOVQ 16(BX), R10
	MOVQ 24(BX), R14
	LEAQ (AX)(SI*8), SI
	LEAQ (AX)(R9*8), R9
	LEAQ (AX)(R10*8), R10
	LEAQ (AX)(R14*8), R14
	SHLQ $3, R8
	SHLQ $3, R11
	CMPQ CX, $16
	JLT  tail4r

wide4r:
	ZERO8
	MOVQ R13, AX
	MOVQ DX, BX
	MOVQ kw+56(FP), R15

wide4rp:
	MOVQ    (AX), R12
	VMOVUPD (BX), Z12
	VMOVUPD 64(BX), Z13
	A_ROWS(BCAST4)
	MULADD4x2
	ADDQ    $8, AX
	ADDQ    R11, BX
	DECQ    R15
	JNZ     wide4rp

	LEAQ (R8)(R8*2), R12
	ADDSTORE4x2(R12)
	ADDQ $128, DI
	ADDQ $128, DX
	SUBQ $16, CX
	CMPQ CX, $16
	JGE  wide4r

tail4r:
	TESTQ CX, CX
	JLE   done4r
	TAIL_MASK
	ZERO_EVEN
	MOVQ  R13, AX
	MOVQ  DX, BX
	MOVQ  kw+56(FP), R15

tail4rp:
	MOVQ      (AX), R12
	VMOVUPD.Z (BX), K1, Z12
	A_ROWS(BCAST4)
	MULADD4x1
	ADDQ      $8, AX
	ADDQ      R11, BX
	DECQ      R15
	JNZ       tail4rp

	LEAQ (R8)(R8*2), R12
	ADDSTORE4x1(R12)
	ADDQ $64, DI
	ADDQ $64, DX
	SUBQ $8, CX
	JMP  tail4r

done4r:
	VZEROUPPER
	RET

// func mmRowsStrip1AVX512(out *float64, a *float64, pOff *int, b *float64, bstride, kw, jw int)
//
// The one-row strip of mmKernelRows, 32 columns in four chains as
// mmStrip1AVX512; a is the row's base, a+rowOff[r]. Registers as in
// mmRowsStrip1AVX2.
TEXT ·mmRowsStrip1AVX512(SB), NOSPLIT, $0-56
	MOVQ out+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ pOff+16(FP), R13
	MOVQ b+24(FP), DX
	MOVQ bstride+32(FP), R11
	MOVQ jw+48(FP), CX
	SHLQ $3, R11
	CMPQ CX, $32
	JLT  tail1r

wide1r:
	ZERO4
	MOVQ R13, AX
	MOVQ DX, BX
	MOVQ kw+40(FP), R15

wide1rp:
	MOVQ         (AX), R12
	VBROADCASTSD (SI)(R12*8), Z8
	MULADD1x4((BX), 64(BX), 128(BX), 192(BX))
	ADDQ         $8, AX
	ADDQ         R11, BX
	DECQ         R15
	JNZ          wide1rp

	ADDSTORE1x4
	ADDQ $256, DI
	ADDQ $256, DX
	SUBQ $32, CX
	CMPQ CX, $32
	JGE  wide1r

tail1r:
	TESTQ CX, CX
	JLE   done1r
	TAIL_MASKS
	ZERO4
	MOVQ  R13, AX
	MOVQ  DX, BX
	MOVQ  kw+40(FP), R15

tail1rp:
	MOVQ         (AX), R12
	VMOVUPD.Z    (BX), K1, Z4
	VMOVUPD.Z    64(BX), K2, Z5
	VMOVUPD.Z    128(BX), K3, Z6
	VMOVUPD.Z    192(BX), K4, Z7
	VBROADCASTSD (SI)(R12*8), Z8
	MULADD1x4(Z4, Z5, Z6, Z7)
	ADDQ         $8, AX
	ADDQ         R11, BX
	DECQ         R15
	JNZ          tail1rp

	ADDSTORE1x4_MASKED

done1r:
	VZEROUPPER
	RET
