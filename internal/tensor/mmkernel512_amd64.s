//go:build amd64 && !race

#include "textflag.h"

// AVX-512 implementation of the GEMM micro-kernel contract in mmkernel.go,
// the same nine strips as mmkernel_amd64.s with ZMM registers: eight lanes
// where AVX2 has four, built the same way from macros and with the same
// register convention, Z for Y. The float-bits argument sits beside the
// multiply-add macros.
//
// The four-row strips take 16-column blocks (row r in Z2r, Z2r+1: eight
// accumulators); the two-row strips take 32-column blocks (row r in
// Z4r-Z4r+3: eight accumulators) and the one-row strips 32-column blocks
// (Z0-Z3: four). A chain step is one FMA whose four-cycle latency the
// next step of that chain waits for, and the core issues two FMAs a cycle:
// eight independent chains keep both units busy, four — a one-row block —
// only one. That is why a remainder of two rows runs as one two-row strip
// rather than as two one-row strips.
//
// The columns a block does not cover run under an opmask: a
// zeroing-masked load (VMOVUPD.Z) reads a masked-out lane as +0 and, the
// architecture guarantees, touches no memory there (so it cannot fault);
// the lane computes a dead product and sum; a masked store leaves its
// memory alone. A one- or two-row strip runs its 1-31 tail columns as one
// pass under four opmasks (K1-K4, one per register), which costs what a
// full block costs. A four-row strip runs its 1-15 tail columns in steps
// of eight under one opmask (K1), so a tail of up to eight — the 6- and
// 8-column weight gradients of the quick profiles' narrow layers among
// them — does half a block's work rather than a full one.
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
// mmkernel_amd64.s; BCAST4 broadcasts them into Z8-Z11, BCAST2 the first
// two (rows 0 and 1 of a two-row strip) into Z8-Z9.
#define A_STRIDED(M) M((AX), (AX)(R9*1), (AX)(R9*2), (AX)(R14*1))
#define A_ROWS(M) M((SI)(R12*8), (R9)(R12*8), (R10)(R12*8), (R14)(R12*8))

#define BCAST4(A0, A1, A2, A3) \
	VBROADCASTSD A0, Z8;  \
	VBROADCASTSD A1, Z9;  \
	VBROADCASTSD A2, Z10; \
	VBROADCASTSD A3, Z11

#define BCAST2(A0, A1, A2, A3) \
	VBROADCASTSD A0, Z8; \
	VBROADCASTSD A1, Z9

// B4 loads a 32-column b row from M0-M3 into Z12-Z15; B4_MASKED loads the
// lanes K1-K4 hold and +0 in the others. AND4 ANDs Z12-Z15 with the mask
// row at M0-M3 (VANDPD, bitwise: a lane is b's bits or +0); AND4_MASKED
// first loads that row's K1-K4 lanes into Z8-Z11, so it comes before the
// a broadcasts.
#define B4(M0, M1, M2, M3) \
	VMOVUPD M0, Z12; \
	VMOVUPD M1, Z13; \
	VMOVUPD M2, Z14; \
	VMOVUPD M3, Z15

#define B4_MASKED(M0, M1, M2, M3) \
	VMOVUPD.Z M0, K1, Z12; \
	VMOVUPD.Z M1, K2, Z13; \
	VMOVUPD.Z M2, K3, Z14; \
	VMOVUPD.Z M3, K4, Z15

#define AND4(M0, M1, M2, M3) \
	VANDPD M0, Z12, Z12; \
	VANDPD M1, Z13, Z13; \
	VANDPD M2, Z14, Z14; \
	VANDPD M3, Z15, Z15

#define AND4_MASKED(M0, M1, M2, M3) \
	VMOVUPD.Z M0, K1, Z8;  \
	VMOVUPD.Z M1, K2, Z9;  \
	VMOVUPD.Z M2, K3, Z10; \
	VMOVUPD.Z M3, K4, Z11; \
	VANDPD    Z8, Z12, Z12;  \
	VANDPD    Z9, Z13, Z13;  \
	VANDPD    Z10, Z14, Z14; \
	VANDPD    Z11, Z15, Z15

// The multiply-add chains, the only place a product meets a sum. The
// float-bits argument is mmkernel_amd64.s's, unchanged: a lane is one
// output element whose chain starts from +0 (ZERO*), runs p ascending as
// one fused multiply-add per step (VFMADD231PD: c + a*b rounded once, the
// Go strips' fma), and joins out once after the chain (ADDSTORE*).
// No horizontal or k-direction reduction, so a lane ends on the Go strips'
// bits; a masked-out lane's dead sum is never stored.
//
// MULADD_ROW adds the b row Z12-Z13 times the broadcast A to the chains
// C0, C1 of one row; MULADD4x2 does that for all four rows. MULADD4x1 is
// the four rows over the one b vector Z12. MULADD_ROW4 adds the four b
// vectors B0-B3 times the broadcast A to the chains C0-C3 of one row:
// MULADD1x4 is row 0 (broadcast Z8, chains Z0-Z3, b in registers or
// memory), MULADD2x4 rows 0 and 1 (Z9 into Z4-Z7) over the b row Z12-Z15.
#define MULADD_ROW(A, C0, C1) \
	VFMADD231PD Z12, A, C0; \
	VFMADD231PD Z13, A, C1

#define MULADD4x2 \
	MULADD_ROW(Z8, Z0, Z1);  \
	MULADD_ROW(Z9, Z2, Z3);  \
	MULADD_ROW(Z10, Z4, Z5); \
	MULADD_ROW(Z11, Z6, Z7)

#define MULADD4x1 \
	VFMADD231PD Z12, Z8, Z0;  \
	VFMADD231PD Z12, Z9, Z2;  \
	VFMADD231PD Z12, Z10, Z4; \
	VFMADD231PD Z12, Z11, Z6

#define MULADD_ROW4(A, B0, B1, B2, B3, C0, C1, C2, C3) \
	VFMADD231PD B0, A, C0; \
	VFMADD231PD B1, A, C1; \
	VFMADD231PD B2, A, C2; \
	VFMADD231PD B3, A, C3

#define MULADD1x4(B0, B1, B2, B3) MULADD_ROW4(Z8, B0, B1, B2, B3, Z0, Z1, Z2, Z3)

#define MULADD2x4 \
	MULADD1x4(Z12, Z13, Z14, Z15); \
	MULADD_ROW4(Z9, Z12, Z13, Z14, Z15, Z4, Z5, Z6, Z7)

// The epilogues: each chain joins out once, read, added and stored at the
// out cursor DI. The four-row forms take out rows at DI, DI+R8, DI+2*R8
// and DI+OS3 (OS3 = 3*ostride); ADDSTORE4x2 covers sixteen columns,
// ADDSTORE4x1 up to eight under K1 (Z8-Z11 as scratch). ADDSTORE1x4 adds
// the chains C0-C3 to the 32 columns of one row at O, ADDSTORE1x4_MASKED
// to up to 31 under K1-K4 (Z12-Z15 as scratch); the two-row forms
// ADDSTORE2x4 and ADDSTORE2x4_MASKED take row 0 at DI from Z0-Z3 and row 1
// at R14 = DI+R8 from Z4-Z7.
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

#define ADDSTORE1x4(O, C0, C1, C2, C3) \
	VADDPD  (O), C0, C0;    \
	VADDPD  64(O), C1, C1;  \
	VADDPD  128(O), C2, C2; \
	VADDPD  192(O), C3, C3; \
	VMOVUPD C0, (O);        \
	VMOVUPD C1, 64(O);      \
	VMOVUPD C2, 128(O);     \
	VMOVUPD C3, 192(O)

#define ADDSTORE1x4_MASKED(O, C0, C1, C2, C3) \
	VMOVUPD.Z (O), K1, Z12;    \
	VMOVUPD.Z 64(O), K2, Z13;  \
	VMOVUPD.Z 128(O), K3, Z14; \
	VMOVUPD.Z 192(O), K4, Z15; \
	VADDPD    Z12, C0, C0;     \
	VADDPD    Z13, C1, C1;     \
	VADDPD    Z14, C2, C2;     \
	VADDPD    Z15, C3, C3;     \
	VMOVUPD   C0, K1, (O);     \
	VMOVUPD   C1, K2, 64(O);   \
	VMOVUPD   C2, K3, 128(O);  \
	VMOVUPD   C3, K4, 192(O)

#define ADDSTORE2x4 \
	ADDSTORE1x4(DI, Z0, Z1, Z2, Z3); \
	LEAQ (DI)(R8*1), R14;            \
	ADDSTORE1x4(R14, Z4, Z5, Z6, Z7)

#define ADDSTORE2x4_MASKED \
	ADDSTORE1x4_MASKED(DI, Z0, Z1, Z2, Z3); \
	LEAQ (DI)(R8*1), R14;                   \
	ADDSTORE1x4_MASKED(R14, Z4, Z5, Z6, Z7)

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

// func mmStrip2AVX512(out *float64, ostride int, a *float64, aRow, aK int, b *float64, bstride, kw, jw int)
//
// The two-row strip: 32 columns of both rows in eight chains, each loaded
// b row shared by the two. Registers as in mmStrip4AVX512, R14 the row-1
// out pointer of the epilogue.
TEXT ·mmStrip2AVX512(SB), NOSPLIT, $0-72
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
	CMPQ CX, $32
	JLT  tail2

wide2:
	ZERO8
	MOVQ SI, AX
	MOVQ DX, BX
	MOVQ R12, R15

wide2p:
	B4((BX), 64(BX), 128(BX), 192(BX))
	A_STRIDED(BCAST2)
	MULADD2x4
	ADDQ R10, AX
	ADDQ R11, BX
	DECQ R15
	JNZ  wide2p

	ADDSTORE2x4
	ADDQ $256, DI
	ADDQ $256, DX
	SUBQ $32, CX
	CMPQ CX, $32
	JGE  wide2

tail2:
	TESTQ CX, CX
	JLE   done2
	TAIL_MASKS
	ZERO8
	MOVQ  SI, AX
	MOVQ  DX, BX
	MOVQ  R12, R15

tail2p:
	B4_MASKED((BX), 64(BX), 128(BX), 192(BX))
	A_STRIDED(BCAST2)
	MULADD2x4
	ADDQ R10, AX
	ADDQ R11, BX
	DECQ R15
	JNZ  tail2p

	ADDSTORE2x4_MASKED

done2:
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

	ADDSTORE1x4(DI, Z0, Z1, Z2, Z3)
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
	B4_MASKED((BX), 64(BX), 128(BX), 192(BX))
	VBROADCASTSD (AX), Z8
	MULADD1x4(Z12, Z13, Z14, Z15)
	ADDQ         R10, AX
	ADDQ         R11, BX
	DECQ         R15
	JNZ          tail1p

	ADDSTORE1x4_MASKED(DI, Z0, Z1, Z2, Z3)

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

// func mmShiftStrip2AVX512(out *float64, ostride int, a *float64, aRow, aK int, b *float64, mask *uint64, tab *int, kw, jw int)
//
// The two-row strip of mmKernelShift, 32 columns in eight chains as
// mmStrip2AVX512, the masked b row in Z12-Z15. Registers as in
// mmShiftStrip4AVX512, R14 the row-1 out pointer of the epilogue.
TEXT ·mmShiftStrip2AVX512(SB), NOSPLIT, $0-80
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
	CMPQ CX, $32
	JLT  tail2s

wide2s:
	ZERO8
	MOVQ SI, AX
	MOVQ R12, BX
	MOVQ kw+64(FP), R15

wide2sp:
	MOVQ (BX), R13
	B4((DX)(R13*8), 64(DX)(R13*8), 128(DX)(R13*8), 192(DX)(R13*8))
	MOVQ 8(BX), R13
	AND4((R11)(R13*8), 64(R11)(R13*8), 128(R11)(R13*8), 192(R11)(R13*8))
	A_STRIDED(BCAST2)
	MULADD2x4
	ADDQ R10, AX
	ADDQ $16, BX
	DECQ R15
	JNZ  wide2sp

	ADDSTORE2x4
	ADDQ $256, DI
	ADDQ $256, DX
	ADDQ $256, R11
	SUBQ $32, CX
	CMPQ CX, $32
	JGE  wide2s

tail2s:
	TESTQ CX, CX
	JLE   done2s
	TAIL_MASKS
	ZERO8
	MOVQ  SI, AX
	MOVQ  R12, BX
	MOVQ  kw+64(FP), R15

tail2sp:
	MOVQ (BX), R13
	B4_MASKED((DX)(R13*8), 64(DX)(R13*8), 128(DX)(R13*8), 192(DX)(R13*8))
	MOVQ 8(BX), R13
	AND4_MASKED((R11)(R13*8), 64(R11)(R13*8), 128(R11)(R13*8), 192(R11)(R13*8))
	A_STRIDED(BCAST2)
	MULADD2x4
	ADDQ R10, AX
	ADDQ $16, BX
	DECQ R15
	JNZ  tail2sp

	ADDSTORE2x4_MASKED

done2s:
	VZEROUPPER
	RET

// func mmShiftStrip1AVX512(out *float64, a *float64, aK int, b *float64, mask *uint64, tab *int, kw, jw int)
//
// The one-row strip of mmKernelShift, 32 columns in four chains as
// mmStrip1AVX512, the masked b row in Z12-Z15. Registers as in
// mmShiftStrip4AVX512.
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
	B4((DX)(R13*8), 64(DX)(R13*8), 128(DX)(R13*8), 192(DX)(R13*8))
	MOVQ         8(BX), R13
	AND4((R11)(R13*8), 64(R11)(R13*8), 128(R11)(R13*8), 192(R11)(R13*8))
	VBROADCASTSD (AX), Z8
	MULADD1x4(Z12, Z13, Z14, Z15)
	ADDQ         R10, AX
	ADDQ         $16, BX
	DECQ         R15
	JNZ          wide1sp

	ADDSTORE1x4(DI, Z0, Z1, Z2, Z3)
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
	B4_MASKED((DX)(R13*8), 64(DX)(R13*8), 128(DX)(R13*8), 192(DX)(R13*8))
	MOVQ         8(BX), R13
	AND4_MASKED((R11)(R13*8), 64(R11)(R13*8), 128(R11)(R13*8), 192(R11)(R13*8))
	VBROADCASTSD (AX), Z8
	MULADD1x4(Z12, Z13, Z14, Z15)
	ADDQ         R10, AX
	ADDQ         $16, BX
	DECQ         R15
	JNZ          tail1sp

	ADDSTORE1x4_MASKED(DI, Z0, Z1, Z2, Z3)

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

// func mmRowsStrip2AVX512(out *float64, ostride int, a *float64, rowOff, pOff *int, b *float64, bstride, kw, jw int)
//
// mmKernelRows' two-row strip: mmStrip2AVX512 with row r of a based at
// a+rowOff[r] and step p at pOff[p] from each base; pOff[p] is loaded once
// per p for both rows. Registers as in mmRowsStrip4AVX512 with SI, R9 the
// two row bases and R14 the row-1 out pointer of the epilogue.
TEXT ·mmRowsStrip2AVX512(SB), NOSPLIT, $0-72
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
	LEAQ (AX)(SI*8), SI
	LEAQ (AX)(R9*8), R9
	SHLQ $3, R8
	SHLQ $3, R11
	CMPQ CX, $32
	JLT  tail2r

wide2r:
	ZERO8
	MOVQ R13, AX
	MOVQ DX, BX
	MOVQ kw+56(FP), R15

wide2rp:
	MOVQ (AX), R12
	B4((BX), 64(BX), 128(BX), 192(BX))
	A_ROWS(BCAST2)
	MULADD2x4
	ADDQ $8, AX
	ADDQ R11, BX
	DECQ R15
	JNZ  wide2rp

	ADDSTORE2x4
	ADDQ $256, DI
	ADDQ $256, DX
	SUBQ $32, CX
	CMPQ CX, $32
	JGE  wide2r

tail2r:
	TESTQ CX, CX
	JLE   done2r
	TAIL_MASKS
	ZERO8
	MOVQ  R13, AX
	MOVQ  DX, BX
	MOVQ  kw+56(FP), R15

tail2rp:
	MOVQ (AX), R12
	B4_MASKED((BX), 64(BX), 128(BX), 192(BX))
	A_ROWS(BCAST2)
	MULADD2x4
	ADDQ $8, AX
	ADDQ R11, BX
	DECQ R15
	JNZ  tail2rp

	ADDSTORE2x4_MASKED

done2r:
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

	ADDSTORE1x4(DI, Z0, Z1, Z2, Z3)
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
	B4_MASKED((BX), 64(BX), 128(BX), 192(BX))
	VBROADCASTSD (SI)(R12*8), Z8
	MULADD1x4(Z12, Z13, Z14, Z15)
	ADDQ         $8, AX
	ADDQ         R11, BX
	DECQ         R15
	JNZ          tail1rp

	ADDSTORE1x4_MASKED(DI, Z0, Z1, Z2, Z3)

done1r:
	VZEROUPPER
	RET
