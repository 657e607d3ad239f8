package tensor

import (
	"fmt"
	"math"
)

// mmKernel is the one GEMM micro-kernel under MatMulInto, MatMulTransAInto,
// VecMatMulAdd and ConvLowering's WeightGrad and InputGrad. It accumulates
//
//	out[r*ostride+j] += Σ_p a[r*aRow+p*aK] * b[p*bstride+j]    r < rows, j < jw
//
// Float bits: each element's sum is one chain that starts from +0, runs p
// 0..kw-1 ascending and rounds every product before adding it — the naive
// triple loop's chain (see the tiling note in matmul.go) — and is added to
// out once, after the chain. Over a zeroed out that is the chain itself: a
// chain begun at +0 is never −0, so +0 + S has the bits of S. Over a
// non-zero out it is one addend, which is what WeightGrad's per-image
// order, InputGrad's per-tap order and the LSTM cell's bias-after-the-sum
// rule ask for. A is
// addressed by two strides so one contract serves both layouts: a
// row-major A block is (aRow, aK) = (row stride, 1), the transposed A of
// MatMulTransA is (1, row stride). ostride and bstride may exceed jw (tiles
// of a wider matrix).
//
// Rows go in strips of four sharing each loaded b element, then one at a
// time. A strip has two implementations of this same contract, bit for bit
// interchangeable: AVX2 assembly (mmkernel_amd64.s, which carries the
// argument why vector lanes do not move bits) and the Go loops below, which
// are what every non-amd64 build, every amd64 CPU without AVX2 and every
// -race build runs (the race detector cannot see assembly loads and
// stores, so the toolchain's race constraint excludes the .s file). The
// choice is made once at init from GOARCH and CPUID; there is no knob.
//
// There is no zero skip on a: a data-dependent branch in this loop made
// kernel time input-dependent and cost 25-35% on post-ReLU operands (~50%
// scattered exact zeros; the _relu benchmarks in matmul_bench_test.go guard
// the property). Adding the av == ±0 terms is bit-neutral on finite data —
// see the finiteness note on the tiling constants.
//
// The far corner of each operand is bounds-checked here, before any pointer
// reaches assembly; empty extents leave out untouched.
func mmKernel(out []float64, ostride int, a []float64, aRow, aK int, b []float64, bstride, rows, kw, jw int) {
	if rows <= 0 || kw <= 0 || jw <= 0 {
		return
	}
	if ostride < 0 || aRow < 0 || aK < 0 || bstride < 0 {
		panic(fmt.Sprintf("tensor: mmKernel negative stride: out %d a %d,%d b %d", ostride, aRow, aK, bstride))
	}
	_ = out[(rows-1)*ostride+jw-1]
	_ = a[(rows-1)*aRow+(kw-1)*aK]
	_ = b[(kw-1)*bstride+jw-1]
	r := 0
	if useAVX2 {
		for ; r+4 <= rows; r += 4 {
			mmStrip4AVX2(&out[r*ostride], ostride, &a[r*aRow], aRow, aK, &b[0], bstride, kw, jw)
		}
		for ; r < rows; r++ {
			mmStrip1AVX2(&out[r*ostride], &a[r*aRow], aK, &b[0], bstride, kw, jw)
		}
		return
	}
	for ; r+4 <= rows; r += 4 {
		mmStrip4Go(out[r*ostride:], ostride, a[r*aRow:], aRow, aK, b, bstride, kw, jw)
	}
	for ; r < rows; r++ {
		mmStrip1Go(out[r*ostride:], a[r*aRow:], aK, b, bstride, kw, jw)
	}
}

func mmStrip4Go(out []float64, ostride int, a []float64, aRow, aK int, b []float64, bstride, kw, jw int) {
	for j := 0; j < jw; j++ {
		var s0, s1, s2, s3 float64
		for p := 0; p < kw; p++ {
			bv := b[p*bstride+j]
			s0 += a[p*aK] * bv
			s1 += a[aRow+p*aK] * bv
			s2 += a[2*aRow+p*aK] * bv
			s3 += a[3*aRow+p*aK] * bv
		}
		out[j] += s0
		out[ostride+j] += s1
		out[2*ostride+j] += s2
		out[3*ostride+j] += s3
	}
}

func mmStrip1Go(out, a []float64, aK int, b []float64, bstride, kw, jw int) {
	for j := 0; j < jw; j++ {
		s := 0.0
		for p := 0; p < kw; p++ {
			s += a[p*aK] * b[p*bstride+j]
		}
		out[j] += s
	}
}

// mmKernelShift is the contract of mmKernel with b read through a table of
// row offsets and every b lane ANDed with a lane mask:
//
//	out[r*ostride+j] += Σ_p a[r*aRow+p*aK] * (b[tab[2p]+j] AND mask[tab[2p+1]+j])
//
// with the same chains, strips and implementations. Row p of b is any
// jw-long window of b, so rows may overlap — ConvLowering.Forward reads a
// staged channel row at each tap's shift — and a mask of all ones passes b
// through while a mask of zero turns its lane, whatever it held (NaN
// included), into +0 before the product. Every offset is checked against
// its slice here, before any pointer reaches assembly.
func mmKernelShift(out []float64, ostride int, a []float64, aRow, aK int, b []float64, mask []uint64, tab []int, rows, kw, jw int) {
	if rows <= 0 || kw <= 0 || jw <= 0 {
		return
	}
	if ostride < 0 || aRow < 0 || aK < 0 {
		panic(fmt.Sprintf("tensor: mmKernelShift negative stride: out %d a %d,%d", ostride, aRow, aK))
	}
	_ = out[(rows-1)*ostride+jw-1]
	_ = a[(rows-1)*aRow+(kw-1)*aK]
	_ = tab[2*kw-1]
	for p := 0; p < kw; p++ {
		if o, m := tab[2*p], tab[2*p+1]; o < 0 || m < 0 || o > len(b)-jw || m > len(mask)-jw {
			panic(fmt.Sprintf("tensor: mmKernelShift row %d at b %d mask %d, %d lanes past b %d mask %d", p, o, m, jw, len(b), len(mask)))
		}
	}
	r := 0
	if useAVX2 {
		for ; r+4 <= rows; r += 4 {
			mmShiftStrip4AVX2(&out[r*ostride], ostride, &a[r*aRow], aRow, aK, &b[0], &mask[0], &tab[0], kw, jw)
		}
		for ; r < rows; r++ {
			mmShiftStrip1AVX2(&out[r*ostride], &a[r*aRow], aK, &b[0], &mask[0], &tab[0], kw, jw)
		}
		return
	}
	for ; r+4 <= rows; r += 4 {
		mmShiftStrip4Go(out[r*ostride:], ostride, a[r*aRow:], aRow, aK, b, mask, tab, kw, jw)
	}
	for ; r < rows; r++ {
		mmShiftStrip1Go(out[r*ostride:], a[r*aRow:], aK, b, mask, tab, kw, jw)
	}
}

// maskedLane is b AND m, the operand a masked strip multiplies.
func maskedLane(b float64, m uint64) float64 {
	return math.Float64frombits(math.Float64bits(b) & m)
}

func mmShiftStrip4Go(out []float64, ostride int, a []float64, aRow, aK int, b []float64, mask []uint64, tab []int, kw, jw int) {
	for j := 0; j < jw; j++ {
		var s0, s1, s2, s3 float64
		for p := 0; p < kw; p++ {
			bv := maskedLane(b[tab[2*p]+j], mask[tab[2*p+1]+j])
			s0 += a[p*aK] * bv
			s1 += a[aRow+p*aK] * bv
			s2 += a[2*aRow+p*aK] * bv
			s3 += a[3*aRow+p*aK] * bv
		}
		out[j] += s0
		out[ostride+j] += s1
		out[2*ostride+j] += s2
		out[3*ostride+j] += s3
	}
}

func mmShiftStrip1Go(out, a []float64, aK int, b []float64, mask []uint64, tab []int, kw, jw int) {
	for j := 0; j < jw; j++ {
		s := 0.0
		for p := 0; p < kw; p++ {
			s += a[p*aK] * maskedLane(b[tab[2*p]+j], mask[tab[2*p+1]+j])
		}
		out[j] += s
	}
}
