package tensor

import "fmt"

// mmKernel is the one GEMM micro-kernel under MatMulInto and
// MatMulTransAInto. It accumulates
//
//	out[r*ostride+j] += Σ_p a[r*aRow+p*aK] * b[p*bstride+j]    r < rows, j < jw
//
// with p running 0..kw-1 in ascending order for every element, each product
// rounded before it is added — the naive triple loop's chain (see the tiling
// note in matmul.go). A is addressed by two strides so one contract serves
// both layouts: a row-major A block is (aRow, aK) = (row stride, 1), the
// transposed A of MatMulTransA is (1, row stride). ostride and bstride may
// exceed jw (tiles of a wider matrix).
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
	o0 := out[:jw]
	o1 := out[ostride : ostride+jw]
	o2 := out[2*ostride : 2*ostride+jw]
	o3 := out[3*ostride : 3*ostride+jw]
	for p := 0; p < kw; p++ {
		av0, av1, av2, av3 := a[p*aK], a[aRow+p*aK], a[2*aRow+p*aK], a[3*aRow+p*aK]
		brow := b[p*bstride : p*bstride+jw]
		for j, bv := range brow {
			o0[j] += av0 * bv
			o1[j] += av1 * bv
			o2[j] += av2 * bv
			o3[j] += av3 * bv
		}
	}
}

func mmStrip1Go(out, a []float64, aK int, b []float64, bstride, kw, jw int) {
	orow := out[:jw]
	for p := 0; p < kw; p++ {
		av := a[p*aK]
		brow := b[p*bstride : p*bstride+jw]
		for j, bv := range brow {
			orow[j] += av * bv
		}
	}
}
