//go:build amd64 && !race

#include "textflag.h"

// AVX2 implementation of the GEMM micro-kernel contract in mmkernel.go:
//
//	out[r*ostride+j] += Σ_p a[r*aRow+p*aK] * b[p*bstride+j]    j < jw, p = 0..kw-1
//
// for a strip of four rows (mmStrip4AVX2) or one row (mmStrip1AVX2), of
// its masked-row variant mmKernelShift (mmShiftStrip4AVX2,
// mmShiftStrip1AVX2), whose b operand is ANDed with a lane mask before the
// same chain, and of its row-table variant mmKernelRows (mmRowsStrip4AVX2,
// mmRowsStrip1AVX2), whose a operand is read at rowOff[r]+pOff[p].
//
// The six strips are built from the macros below, one definition per block
// the families share: accumulator zeroing, the multiply-add chains, the
// read-add-store epilogues, the four a broadcasts. A strip body spells out
// only its family: the argument prologue, how it loads a row of b (direct,
// or at tab[2p] ANDed with the mask row at tab[2p+1]), which a operands it
// broadcasts (strided, or row bases plus pOff[p]) and how its cursors
// advance. Registers keep one convention: DI out column cursor, R8 ostride
// (bytes), DX b column cursor, CX columns left, R15 p countdown; Y0-Y7
// accumulators (row r of a four-row block in Y2r, Y2r+1; a one-row block's
// four chains in Y0-Y3), Y8-Y11 broadcast a values, Y12-Y13 the b row,
// Y14-Y15 products.
//
// Column tails narrower than four are run as a four-wide block under a
// VMASKMOVPD lane mask: masked-out lanes load as zero, compute a dead
// 0*a+0 and are never stored, and the architecture guarantees no access
// (hence no fault) at a masked-out address. The four-row strips of
// mmKernel and mmKernelRows run a tail of five to seven columns the same
// way in one eight-wide pass, its upper four lanes under the mask. The p
// loops are do-while; the Go wrapper never calls with kw == 0 or jw == 0.

// Lane masks: 32 bytes read at offset 8*(4-n) have the first n lanes set.
DATA mmLaneMask<>+0(SB)/8, $-1
DATA mmLaneMask<>+8(SB)/8, $-1
DATA mmLaneMask<>+16(SB)/8, $-1
DATA mmLaneMask<>+24(SB)/8, $-1
DATA mmLaneMask<>+32(SB)/8, $0
DATA mmLaneMask<>+40(SB)/8, $0
DATA mmLaneMask<>+48(SB)/8, $0
DATA mmLaneMask<>+56(SB)/8, $0
GLOBL mmLaneMask<>(SB), RODATA|NOPTR, $64

// NARROW_MASK sets Y13 to the lane mask of min(CX, 4) columns. Clobbers AX, BX.
#define NARROW_MASK \
	MOVQ    $4, AX;                  \
	CMPQ    CX, AX;                  \
	CMOVQLT CX, AX;                  \
	NEGQ    AX;                      \
	LEAQ    mmLaneMask<>+32(SB), BX; \
	VMOVDQU (BX)(AX*8), Y13

// MID_MASK sets Y9 to the lane mask of CX-4 columns, 5 <= CX <= 7: the
// upper half of a five- to seven-column block. Clobbers AX, BX.
#define MID_MASK \
	MOVQ    $4, AX;                  \
	SUBQ    CX, AX;                  \
	LEAQ    mmLaneMask<>+32(SB), BX; \
	VMOVDQU (BX)(AX*8), Y9

// ZERO4, ZERO8 and ZERO_EVEN start a block's chains from +0: the four
// accumulators of a one-row block, all eight of a four-row block two
// vectors wide, the four of a four-row block one vector wide.
#define ZERO4 \
	VXORPD Y0, Y0, Y0; \
	VXORPD Y1, Y1, Y1; \
	VXORPD Y2, Y2, Y2; \
	VXORPD Y3, Y3, Y3

#define ZERO8 \
	ZERO4;             \
	VXORPD Y4, Y4, Y4; \
	VXORPD Y5, Y5, Y5; \
	VXORPD Y6, Y6, Y6; \
	VXORPD Y7, Y7, Y7

#define ZERO_EVEN \
	VXORPD Y0, Y0, Y0; \
	VXORPD Y2, Y2, Y2; \
	VXORPD Y4, Y4, Y4; \
	VXORPD Y6, Y6, Y6

// A_STRIDED and A_ROWS apply M to the four a operands of step p, rows 0-3
// in order: strided from the a cursor AX by R9 = aRow and R14 = 3*aRow
// (plain and masked-row strips), or at R12 = pOff[p] from the row bases
// SI, R9, R10, R14 (row-table strip). BCAST4 broadcasts them into Y8-Y11.
#define A_STRIDED(M) M((AX), (AX)(R9*1), (AX)(R9*2), (AX)(R14*1))
#define A_ROWS(M) M((SI)(R12*8), (R9)(R12*8), (R10)(R12*8), (R14)(R12*8))

#define BCAST4(A0, A1, A2, A3) \
	VBROADCASTSD A0, Y8;  \
	VBROADCASTSD A1, Y9;  \
	VBROADCASTSD A2, Y10; \
	VBROADCASTSD A3, Y11

// The multiply-add chains. Float-bits rule: each output element gets
//
//	out + (((+0 + a_0*b_0) + a_1*b_1) + ... + a_{kw-1}*b_{kw-1})
//
// with p ascending, every product rounded (VMULPD) before it is added
// (VADDPD), and out added once after the chain — exactly the Go strips'
// `s += av * bv` from s = 0, then `o[j] += s`. A vector lane is one output
// element: lanes never meet, so a lane performs the same IEEE operations on
// the same operands in the same order as the scalar loop and ends on the
// same bits. Two things would break that and are therefore absent from
// these macros, the only place a product meets a sum: fused multiply-add
// (VFMADD* rounds a*b+c once, the Go loop twice) and any horizontal or
// k-direction reduction (splitting one element's chain over lanes
// re-associates its sum). The accumulators start zeroed in registers
// (ZERO*) and stay there for the whole p loop; out is read and written
// once per block (ADDSTORE*).
//
// MULADD_ROW adds the b row Y12-Y13 times the broadcast A to the chains
// C0, C1 of one row. MULADD4x2 does that for all four rows; MULADD_MID
// broadcasts each row's operand into Y8 just before its products (the
// five- to seven-column tail, whose Y9 holds the lane mask). MULADD4x1 is
// the four rows over the one b vector Y12, the products overwriting the
// broadcasts; MULADD1x4 one row (broadcast Y8) over four b vectors B0-B3;
// MULADD1x1 one row over Y12.
#define MULADD_ROW(A, C0, C1) \
	VMULPD Y12, A, Y14;   \
	VMULPD Y13, A, Y15;   \
	VADDPD Y14, C0, C0;   \
	VADDPD Y15, C1, C1

#define MULADD4x2 \
	MULADD_ROW(Y8, Y0, Y1);  \
	MULADD_ROW(Y9, Y2, Y3);  \
	MULADD_ROW(Y10, Y4, Y5); \
	MULADD_ROW(Y11, Y6, Y7)

#define MULADD_MID(A0, A1, A2, A3) \
	VBROADCASTSD A0, Y8;    \
	MULADD_ROW(Y8, Y0, Y1); \
	VBROADCASTSD A1, Y8;    \
	MULADD_ROW(Y8, Y2, Y3); \
	VBROADCASTSD A2, Y8;    \
	MULADD_ROW(Y8, Y4, Y5); \
	VBROADCASTSD A3, Y8;    \
	MULADD_ROW(Y8, Y6, Y7)

#define MULADD4x1 \
	VMULPD Y12, Y8, Y8;   \
	VMULPD Y12, Y9, Y9;   \
	VMULPD Y12, Y10, Y10; \
	VMULPD Y12, Y11, Y11; \
	VADDPD Y8, Y0, Y0;    \
	VADDPD Y9, Y2, Y2;    \
	VADDPD Y10, Y4, Y4;   \
	VADDPD Y11, Y6, Y6

#define MULADD1x4(B0, B1, B2, B3) \
	VMULPD B0, Y8, Y12; \
	VMULPD B1, Y8, Y13; \
	VMULPD B2, Y8, Y14; \
	VMULPD B3, Y8, Y15; \
	VADDPD Y12, Y0, Y0; \
	VADDPD Y13, Y1, Y1; \
	VADDPD Y14, Y2, Y2; \
	VADDPD Y15, Y3, Y3

#define MULADD1x1 \
	VMULPD Y12, Y8, Y8; \
	VADDPD Y8, Y0, Y0

// The epilogues: each chain joins out once, read, added and stored at the
// out cursor DI. The four-row forms take out rows at DI, DI+R8, DI+2*R8
// and DI+OS3 (OS3 = 3*ostride); ADDSTORE4x2 covers eight columns,
// ADDSTORE_MID five to seven (upper half under Y9, Y14-Y15 as scratch),
// ADDSTORE4x1 up to four under Y13 (Y8-Y11 as scratch). ADDSTORE1x4
// covers sixteen columns of one row, ADDSTORE1x1 up to four under Y13.
#define ADDSTORE4x2(OS3) \
	VADDPD  (DI), Y0, Y0;          \
	VADDPD  32(DI), Y1, Y1;        \
	VADDPD  (DI)(R8*1), Y2, Y2;    \
	VADDPD  32(DI)(R8*1), Y3, Y3;  \
	VADDPD  (DI)(R8*2), Y4, Y4;    \
	VADDPD  32(DI)(R8*2), Y5, Y5;  \
	VADDPD  (DI)(OS3*1), Y6, Y6;   \
	VADDPD  32(DI)(OS3*1), Y7, Y7; \
	VMOVUPD Y0, (DI);              \
	VMOVUPD Y1, 32(DI);            \
	VMOVUPD Y2, (DI)(R8*1);        \
	VMOVUPD Y3, 32(DI)(R8*1);      \
	VMOVUPD Y4, (DI)(R8*2);        \
	VMOVUPD Y5, 32(DI)(R8*2);      \
	VMOVUPD Y6, (DI)(OS3*1);       \
	VMOVUPD Y7, 32(DI)(OS3*1)

#define ADDSTORE_MID(OS3) \
	VADDPD     (DI), Y0, Y0;               \
	VMASKMOVPD 32(DI), Y9, Y14;            \
	VADDPD     Y14, Y1, Y1;                \
	VADDPD     (DI)(R8*1), Y2, Y2;         \
	VMASKMOVPD 32(DI)(R8*1), Y9, Y15;      \
	VADDPD     Y15, Y3, Y3;                \
	VADDPD     (DI)(R8*2), Y4, Y4;         \
	VMASKMOVPD 32(DI)(R8*2), Y9, Y14;      \
	VADDPD     Y14, Y5, Y5;                \
	VADDPD     (DI)(OS3*1), Y6, Y6;        \
	VMASKMOVPD 32(DI)(OS3*1), Y9, Y15;     \
	VADDPD     Y15, Y7, Y7;                \
	VMOVUPD    Y0, (DI);                   \
	VMASKMOVPD Y1, Y9, 32(DI);             \
	VMOVUPD    Y2, (DI)(R8*1);             \
	VMASKMOVPD Y3, Y9, 32(DI)(R8*1);       \
	VMOVUPD    Y4, (DI)(R8*2);             \
	VMASKMOVPD Y5, Y9, 32(DI)(R8*2);       \
	VMOVUPD    Y6, (DI)(OS3*1);            \
	VMASKMOVPD Y7, Y9, 32(DI)(OS3*1)

#define ADDSTORE4x1(OS3) \
	VMASKMOVPD (DI), Y13, Y8;         \
	VMASKMOVPD (DI)(R8*1), Y13, Y9;   \
	VMASKMOVPD (DI)(R8*2), Y13, Y10;  \
	VMASKMOVPD (DI)(OS3*1), Y13, Y11; \
	VADDPD     Y8, Y0, Y0;            \
	VADDPD     Y9, Y2, Y2;            \
	VADDPD     Y10, Y4, Y4;           \
	VADDPD     Y11, Y6, Y6;           \
	VMASKMOVPD Y0, Y13, (DI);         \
	VMASKMOVPD Y2, Y13, (DI)(R8*1);   \
	VMASKMOVPD Y4, Y13, (DI)(R8*2);   \
	VMASKMOVPD Y6, Y13, (DI)(OS3*1)

#define ADDSTORE1x4 \
	VADDPD  (DI), Y0, Y0;   \
	VADDPD  32(DI), Y1, Y1; \
	VADDPD  64(DI), Y2, Y2; \
	VADDPD  96(DI), Y3, Y3; \
	VMOVUPD Y0, (DI);       \
	VMOVUPD Y1, 32(DI);     \
	VMOVUPD Y2, 64(DI);     \
	VMOVUPD Y3, 96(DI)

#define ADDSTORE1x1 \
	VMASKMOVPD (DI), Y13, Y12; \
	VADDPD     Y12, Y0, Y0;    \
	VMASKMOVPD Y0, Y13, (DI)

// func mmStrip4AVX2(out *float64, ostride int, a *float64, aRow, aK int, b *float64, bstride, kw, jw int)
//
// DI out column cursor, R8 ostride, R13 3*ostride (bytes from here on)
// SI a,                 R9 aRow,    R14 3*aRow,   R10 aK
// DX b column cursor,   R11 bstride
// R12 kw, CX columns left; AX/BX/R15 a cursor, b cursor and p countdown.
TEXT ·mmStrip4AVX2(SB), NOSPLIT, $0-72
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
	CMPQ CX, $8
	JLT  tail4

wide4:
	ZERO8
	MOVQ SI, AX
	MOVQ DX, BX
	MOVQ R12, R15

wide4p:
	VMOVUPD (BX), Y12
	VMOVUPD 32(BX), Y13
	A_STRIDED(BCAST4)
	MULADD4x2
	ADDQ    R10, AX
	ADDQ    R11, BX
	DECQ    R15
	JNZ     wide4p

	ADDSTORE4x2(R13)
	ADDQ $64, DI
	ADDQ $64, DX
	SUBQ $8, CX
	CMPQ CX, $8
	JGE  wide4

tail4:
	CMPQ CX, $5
	JLT  narrow4
	MID_MASK
	ZERO8
	MOVQ SI, AX
	MOVQ DX, BX
	MOVQ R12, R15

mid4p:
	VMOVUPD    (BX), Y12
	VMASKMOVPD 32(BX), Y9, Y13
	A_STRIDED(MULADD_MID)
	ADDQ       R10, AX
	ADDQ       R11, BX
	DECQ       R15
	JNZ        mid4p

	ADDSTORE_MID(R13)
	JMP done4

narrow4:
	TESTQ CX, CX
	JLE   done4
	NARROW_MASK
	ZERO_EVEN
	MOVQ  SI, AX
	MOVQ  DX, BX
	MOVQ  R12, R15

narrow4p:
	VMASKMOVPD (BX), Y13, Y12
	A_STRIDED(BCAST4)
	MULADD4x1
	ADDQ       R10, AX
	ADDQ       R11, BX
	DECQ       R15
	JNZ        narrow4p

	ADDSTORE4x1(R13)
	ADDQ $32, DI
	ADDQ $32, DX
	SUBQ $4, CX
	JMP  narrow4

done4:
	VZEROUPPER
	RET

// func mmStrip1AVX2(out *float64, a *float64, aK int, b *float64, bstride, kw, jw int)
//
// The one-row remainder strip: sixteen columns of accumulators (Y0-Y3)
// give the adder the four independent chains one row can offer.
// DI out cursor, SI a, R10 aK, DX b cursor, R11 bstride, R12 kw, CX columns
// left; AX/BX/R15 as in mmStrip4AVX2.
TEXT ·mmStrip1AVX2(SB), NOSPLIT, $0-56
	MOVQ out+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ aK+16(FP), R10
	MOVQ b+24(FP), DX
	MOVQ bstride+32(FP), R11
	MOVQ kw+40(FP), R12
	MOVQ jw+48(FP), CX
	SHLQ $3, R10
	SHLQ $3, R11
	CMPQ CX, $16
	JLT  narrow1

wide1:
	ZERO4
	MOVQ SI, AX
	MOVQ DX, BX
	MOVQ R12, R15

wide1p:
	VBROADCASTSD (AX), Y8
	MULADD1x4((BX), 32(BX), 64(BX), 96(BX))
	ADDQ         R10, AX
	ADDQ         R11, BX
	DECQ         R15
	JNZ          wide1p

	ADDSTORE1x4
	ADDQ $128, DI
	ADDQ $128, DX
	SUBQ $16, CX
	CMPQ CX, $16
	JGE  wide1

narrow1:
	TESTQ  CX, CX
	JLE    done1
	NARROW_MASK
	VXORPD Y0, Y0, Y0
	MOVQ   SI, AX
	MOVQ   DX, BX
	MOVQ   R12, R15

narrow1p:
	VMASKMOVPD   (BX), Y13, Y12
	VBROADCASTSD (AX), Y8
	MULADD1x1
	ADDQ         R10, AX
	ADDQ         R11, BX
	DECQ         R15
	JNZ          narrow1p

	ADDSTORE1x1
	ADDQ $32, DI
	ADDQ $32, DX
	SUBQ $4, CX
	JMP  narrow1

done1:
	VZEROUPPER
	RET

// func mmShiftStrip4AVX2(out *float64, ostride int, a *float64, aRow, aK int, b *float64, mask *uint64, tab *int, kw, jw int)
//
// mmKernelShift's four-row strip: mmStrip4AVX2 with row p of b loaded at
// tab[2p] and ANDed (VANDPD) with the mask row at tab[2p+1]. The AND is
// bitwise, so a lane is b's bits or +0, and the chain after it is the
// plain strip's. Tails load both rows under the VMASKMOVPD lane mask.
// DI out column cursor, R8 ostride, SI a, R9 aRow, R14 3*aRow, R10 aK
// (bytes from here on); DX b and R11 mask column cursors, R12 tab;
// CX columns left; AX a cursor, BX tab cursor, R15 p countdown, R13 the
// row offset just read (3*ostride after the p loop).
TEXT ·mmShiftStrip4AVX2(SB), NOSPLIT, $0-80
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
	CMPQ CX, $8
	JLT  narrow4s

wide4s:
	ZERO8
	MOVQ SI, AX
	MOVQ R12, BX
	MOVQ kw+64(FP), R15

wide4sp:
	MOVQ    (BX), R13
	VMOVUPD (DX)(R13*8), Y12
	VMOVUPD 32(DX)(R13*8), Y13
	MOVQ    8(BX), R13
	VANDPD  (R11)(R13*8), Y12, Y12
	VANDPD  32(R11)(R13*8), Y13, Y13
	A_STRIDED(BCAST4)
	MULADD4x2
	ADDQ    R10, AX
	ADDQ    $16, BX
	DECQ    R15
	JNZ     wide4sp

	LEAQ (R8)(R8*2), R13
	ADDSTORE4x2(R13)
	ADDQ $64, DI
	ADDQ $64, DX
	ADDQ $64, R11
	SUBQ $8, CX
	CMPQ CX, $8
	JGE  wide4s

narrow4s:
	TESTQ CX, CX
	JLE   done4s
	NARROW_MASK
	ZERO_EVEN
	MOVQ  SI, AX
	MOVQ  R12, BX
	MOVQ  kw+64(FP), R15

narrow4sp:
	MOVQ       (BX), R13
	VMASKMOVPD (DX)(R13*8), Y13, Y12
	MOVQ       8(BX), R13
	VMASKMOVPD (R11)(R13*8), Y13, Y14
	VANDPD     Y14, Y12, Y12
	A_STRIDED(BCAST4)
	MULADD4x1
	ADDQ       R10, AX
	ADDQ       $16, BX
	DECQ       R15
	JNZ        narrow4sp

	LEAQ (R8)(R8*2), R13
	ADDSTORE4x1(R13)
	ADDQ $32, DI
	ADDQ $32, DX
	ADDQ $32, R11
	SUBQ $4, CX
	JMP  narrow4s

done4s:
	VZEROUPPER
	RET

// func mmShiftStrip1AVX2(out *float64, a *float64, aK int, b *float64, mask *uint64, tab *int, kw, jw int)
//
// The one-row remainder of mmKernelShift, sixteen columns wide as
// mmStrip1AVX2, the masked b row in Y4-Y7. Registers as in
// mmShiftStrip4AVX2.
TEXT ·mmShiftStrip1AVX2(SB), NOSPLIT, $0-64
	MOVQ out+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ aK+16(FP), R10
	MOVQ b+24(FP), DX
	MOVQ mask+32(FP), R11
	MOVQ tab+40(FP), R12
	MOVQ jw+56(FP), CX
	SHLQ $3, R10
	CMPQ CX, $16
	JLT  narrow1s

wide1s:
	ZERO4
	MOVQ SI, AX
	MOVQ R12, BX
	MOVQ kw+48(FP), R15

wide1sp:
	MOVQ         (BX), R13
	VMOVUPD      (DX)(R13*8), Y4
	VMOVUPD      32(DX)(R13*8), Y5
	VMOVUPD      64(DX)(R13*8), Y6
	VMOVUPD      96(DX)(R13*8), Y7
	MOVQ         8(BX), R13
	VANDPD       (R11)(R13*8), Y4, Y4
	VANDPD       32(R11)(R13*8), Y5, Y5
	VANDPD       64(R11)(R13*8), Y6, Y6
	VANDPD       96(R11)(R13*8), Y7, Y7
	VBROADCASTSD (AX), Y8
	MULADD1x4(Y4, Y5, Y6, Y7)
	ADDQ         R10, AX
	ADDQ         $16, BX
	DECQ         R15
	JNZ          wide1sp

	ADDSTORE1x4
	ADDQ $128, DI
	ADDQ $128, DX
	ADDQ $128, R11
	SUBQ $16, CX
	CMPQ CX, $16
	JGE  wide1s

narrow1s:
	TESTQ  CX, CX
	JLE    done1s
	NARROW_MASK
	VXORPD Y0, Y0, Y0
	MOVQ   SI, AX
	MOVQ   R12, BX
	MOVQ   kw+48(FP), R15

narrow1sp:
	MOVQ         (BX), R13
	VMASKMOVPD   (DX)(R13*8), Y13, Y12
	MOVQ         8(BX), R13
	VMASKMOVPD   (R11)(R13*8), Y13, Y14
	VANDPD       Y14, Y12, Y12
	VBROADCASTSD (AX), Y8
	MULADD1x1
	ADDQ         R10, AX
	ADDQ         $16, BX
	DECQ         R15
	JNZ          narrow1sp

	ADDSTORE1x1
	ADDQ $32, DI
	ADDQ $32, DX
	ADDQ $32, R11
	SUBQ $4, CX
	JMP  narrow1s

done1s:
	VZEROUPPER
	RET

// func mmRowsStrip4AVX2(out *float64, ostride int, a *float64, rowOff, pOff *int, b *float64, bstride, kw, jw int)
//
// mmKernelRows' four-row strip: mmStrip4AVX2 with row r of a based at
// a+rowOff[r] and step p at pOff[p] from each base; pOff[p] is loaded
// once per p for all four rows. Tails as in mmStrip4AVX2.
// DI out column cursor, R8 ostride (bytes), SI/R9/R10/R14 the four row
// bases, R13 pOff, DX b column cursor, R11 bstride (bytes), CX columns
// left; AX pOff cursor, BX b cursor, R15 p countdown, R12 the offset just
// read (3*ostride after the p loop).
TEXT ·mmRowsStrip4AVX2(SB), NOSPLIT, $0-72
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
	CMPQ CX, $8
	JLT  tail4r

wide4r:
	ZERO8
	MOVQ R13, AX
	MOVQ DX, BX
	MOVQ kw+56(FP), R15

wide4rp:
	MOVQ    (AX), R12
	VMOVUPD (BX), Y12
	VMOVUPD 32(BX), Y13
	A_ROWS(BCAST4)
	MULADD4x2
	ADDQ    $8, AX
	ADDQ    R11, BX
	DECQ    R15
	JNZ     wide4rp

	LEAQ (R8)(R8*2), R12
	ADDSTORE4x2(R12)
	ADDQ $64, DI
	ADDQ $64, DX
	SUBQ $8, CX
	CMPQ CX, $8
	JGE  wide4r

tail4r:
	CMPQ CX, $5
	JLT  narrow4r
	MID_MASK
	ZERO8
	MOVQ R13, AX
	MOVQ DX, BX
	MOVQ kw+56(FP), R15

mid4rp:
	MOVQ       (AX), R12
	VMOVUPD    (BX), Y12
	VMASKMOVPD 32(BX), Y9, Y13
	A_ROWS(MULADD_MID)
	ADDQ       $8, AX
	ADDQ       R11, BX
	DECQ       R15
	JNZ        mid4rp

	LEAQ (R8)(R8*2), R12
	ADDSTORE_MID(R12)
	JMP  done4r

narrow4r:
	TESTQ CX, CX
	JLE   done4r
	NARROW_MASK
	ZERO_EVEN
	MOVQ  R13, AX
	MOVQ  DX, BX
	MOVQ  kw+56(FP), R15

narrow4rp:
	MOVQ       (AX), R12
	VMASKMOVPD (BX), Y13, Y12
	A_ROWS(BCAST4)
	MULADD4x1
	ADDQ       $8, AX
	ADDQ       R11, BX
	DECQ       R15
	JNZ        narrow4rp

	LEAQ (R8)(R8*2), R12
	ADDSTORE4x1(R12)
	ADDQ $32, DI
	ADDQ $32, DX
	SUBQ $4, CX
	JMP  narrow4r

done4r:
	VZEROUPPER
	RET

// func mmRowsStrip1AVX2(out *float64, a *float64, pOff *int, b *float64, bstride, kw, jw int)
//
// The one-row remainder of mmKernelRows, sixteen columns wide as
// mmStrip1AVX2; a is the row's base, a+rowOff[r]. DI out cursor, SI a,
// R13 pOff, DX b cursor, R11 bstride (bytes), CX columns left; AX pOff
// cursor, BX b cursor, R15 p countdown, R12 the offset just read.
TEXT ·mmRowsStrip1AVX2(SB), NOSPLIT, $0-56
	MOVQ out+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ pOff+16(FP), R13
	MOVQ b+24(FP), DX
	MOVQ bstride+32(FP), R11
	MOVQ jw+48(FP), CX
	SHLQ $3, R11
	CMPQ CX, $16
	JLT  narrow1r

wide1r:
	ZERO4
	MOVQ R13, AX
	MOVQ DX, BX
	MOVQ kw+40(FP), R15

wide1rp:
	MOVQ         (AX), R12
	VBROADCASTSD (SI)(R12*8), Y8
	MULADD1x4((BX), 32(BX), 64(BX), 96(BX))
	ADDQ         $8, AX
	ADDQ         R11, BX
	DECQ         R15
	JNZ          wide1rp

	ADDSTORE1x4
	ADDQ $128, DI
	ADDQ $128, DX
	SUBQ $16, CX
	CMPQ CX, $16
	JGE  wide1r

narrow1r:
	TESTQ  CX, CX
	JLE    done1r
	NARROW_MASK
	VXORPD Y0, Y0, Y0
	MOVQ   R13, AX
	MOVQ   DX, BX
	MOVQ   kw+40(FP), R15

narrow1rp:
	MOVQ         (AX), R12
	VMASKMOVPD   (BX), Y13, Y12
	VBROADCASTSD (SI)(R12*8), Y8
	MULADD1x1
	ADDQ         $8, AX
	ADDQ         R11, BX
	DECQ         R15
	JNZ          narrow1rp

	ADDSTORE1x1
	ADDQ $32, DI
	ADDQ $32, DX
	SUBQ $4, CX
	JMP  narrow1r

done1r:
	VZEROUPPER
	RET

// func cpuLevel() int
//
// The highest implementation level this CPU and OS run (see mmkernel.go).
// AVX2 (1) when CPUID reports it (leaf 7 EBX bit 5) and the OS saves the
// YMM state: CPUID.1:ECX has OSXSAVE (bit 27) and AVX (bit 28), and XCR0
// has the SSE and AVX state bits (1 and 2) set. AVX-512 (2) when, beyond
// that, leaf 7 EBX reports AVX512F (bit 16) and AVX512DQ (bit 17: the
// VANDPD zmm of the masked-row strips) and XCR0 has the opmask, ZMM_Hi256
// and Hi16_ZMM state bits (5, 6 and 7) set.
TEXT ·cpuLevel(SB), NOSPLIT, $0-8
	MOVQ   $0, ret+0(FP)
	XORL   AX, AX
	XORL   CX, CX
	CPUID
	CMPL   AX, $7
	JLT    leveldone
	MOVL   $1, AX
	XORL   CX, CX
	CPUID
	ANDL   $0x18000000, CX
	CMPL   CX, $0x18000000
	JNE    leveldone
	XORL   CX, CX
	XGETBV
	MOVL   AX, R8
	ANDL   $6, AX
	CMPL   AX, $6
	JNE    leveldone
	MOVL   $7, AX
	XORL   CX, CX
	CPUID
	BTL    $5, BX
	JCC    leveldone
	MOVQ   $1, ret+0(FP)
	ANDL   $0x30000, BX
	CMPL   BX, $0x30000
	JNE    leveldone
	ANDL   $0xe0, R8
	CMPL   R8, $0xe0
	JNE    leveldone
	MOVQ   $2, ret+0(FP)

leveldone:
	RET
