package tensor

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// mmKernel is the one GEMM micro-kernel under MatMulInto, MatMulTransAAdd,
// VecMatMulAdd (its one-row strip, called directly), ConvLowering's
// InputGrad and a gather geometry's Forward
// (WeightGrad and a same-size Forward run its two table-addressed variants
// below). It accumulates
//
//	out[r*ostride+j] += Σ_p a[r*aRow+p*aK] * b[p*bstride+j]    r < rows, j < jw
//
// Float bits: each element's sum is one chain that starts from +0, runs p
// 0..kw-1 ascending as s = fma(a, b, s) — every product added unrounded,
// the sum rounded once per step: IEEE 754's fused multiply-add — and is
// added to out once, after the chain. Over a zeroed out that is the chain
// itself — +0 + S has the bits of S — unless S is −0, which a fused chain
// can end on (a step whose negative product underflows past the smallest
// subnormal rounds to −0); +0 + −0 is +0. Over a non-zero out it is one
// addend,
// which is what WeightGrad's per-image order, InputGrad's per-tap order and
// the LSTM cell's bias-after-the-sum rule ask for. A is addressed by two
// strides so one contract serves both layouts: a row-major A block is
// (aRow, aK) = (row stride, 1), the transposed A of matMulTransA is
// (1, row stride). ostride and bstride may exceed jw (tiles of a wider
// matrix).
//
// Rows go in strips of four sharing each loaded b element; the assembly
// levels then run a remainder of two or three rows as a two-row strip and
// a last odd row as a one-row strip, the Go level every remainder row as a
// one-row strip. A strip's shape never changes an element's chain, so
// every dispatch gives the same bits. A strip has three implementations of
// this same contract, bit for bit interchangeable, one per level: AVX-512
// assembly (mmkernel512_amd64.s, eight lanes, opmask tails), AVX2+FMA
// assembly (mmkernel_amd64.s, four lanes; each file builds its nine strips
// from shared macros, and the argument why vector lanes do not move bits
// sits beside its multiply-add macros) and the Go loops below, whose fma is
// the chain's definition and which are what every non-amd64
// build, every amd64 CPU without AVX2 and FMA and every -race build runs
// (the race detector cannot see assembly loads and stores, so the
// toolchain's race constraint excludes the .s files). The level is chosen
// once at init from GOARCH, CPUID and XCR0; there is no knob.
//
// Every other multiply-add in this package rounds its product explicitly
// (float64(x*y)), so the compiler of an architecture that fuses x*y + z on
// its own (arm64 among them) keeps their bits; the Go strips' fma is the
// only fused operation, on every architecture.
//
// There is no zero skip on a: a data-dependent branch in this loop made
// kernel time input-dependent and cost 25-35% on post-ReLU operands (~50%
// scattered exact zeros; the _relu benchmarks in matmul_bench_test.go guard
// the property). Adding the av == ±0 terms is bit-neutral on finite data —
// see the finiteness note on the tiling constants.
//
// The far corner of each operand is bounds-checked here (reaches), before
// any pointer reaches assembly; empty extents leave out untouched.
func mmKernel(out []float64, ostride int, a []float64, aRow, aK int, b []float64, bstride, rows, kw, jw int) {
	if rows <= 0 || kw <= 0 || jw <= 0 {
		return
	}
	if ostride < 0 || aRow < 0 || aK < 0 || bstride < 0 {
		panic(fmt.Sprintf("tensor: mmKernel negative stride: out %d a %d,%d b %d", ostride, aRow, aK, bstride))
	}
	if !reaches(len(out), rows, ostride, jw) || !reachesA(len(a), rows, aRow, kw, aK) || !reaches(len(b), kw, bstride, jw) {
		panic(fmt.Sprintf("tensor: mmKernel %d×%d×%d past its operands: out %d stride %d, a %d strides %d,%d, b %d stride %d",
			rows, kw, jw, len(out), ostride, len(a), aRow, aK, len(b), bstride))
	}
	r := 0
	switch level {
	case levelAVX512:
		for ; r+4 <= rows; r += 4 {
			mmStrip4AVX512(&out[r*ostride], ostride, &a[r*aRow], aRow, aK, &b[0], bstride, kw, jw)
		}
		if r+2 <= rows {
			mmStrip2AVX512(&out[r*ostride], ostride, &a[r*aRow], aRow, aK, &b[0], bstride, kw, jw)
			r += 2
		}
		if r < rows {
			mmStrip1AVX512(&out[r*ostride], &a[r*aRow], aK, &b[0], bstride, kw, jw)
		}
		return
	case levelAVX2:
		for ; r+4 <= rows; r += 4 {
			mmStrip4AVX2(&out[r*ostride], ostride, &a[r*aRow], aRow, aK, &b[0], bstride, kw, jw)
		}
		if r+2 <= rows {
			mmStrip2AVX2(&out[r*ostride], ostride, &a[r*aRow], aRow, aK, &b[0], bstride, kw, jw)
			r += 2
		}
		if r < rows {
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

// The implementation levels of the micro-kernel, lowest first. level (set
// per build in mmkernel_amd64.go or mmkernel_noasm.go) is the highest the
// build and CPU run; the epilogue lanes (lanes.go) run their AVX2 loops at
// every level from levelAVX2 up.
const (
	levelGo = iota
	levelAVX2
	levelAVX512
)

// reaches reports whether n floats hold m ≥ 1 rows of w ≥ 1 floats, stride
// ≥ 0 apart: (m−1)·stride + w ≤ n. The product is taken double-width, so a
// stride that would wrap it past MaxInt to a small index is refused.
func reaches(n, m, stride, w int) bool {
	hi, lo := bits.Mul(uint(m-1), uint(stride))
	return hi == 0 && w <= n && lo <= uint(n-w)
}

// reachesA is reaches for an A operand of rows × kw at strides aRow, aK:
// (rows−1)·aRow + (kw−1)·aK < n.
func reachesA(n, rows, aRow, kw, aK int) bool {
	return reaches(n, kw, aK, 1) && reaches(n, rows, aRow, (kw-1)*aK+1)
}

// fma is one step of a chain, a·b + s rounded once. It is math.FMA but for
// a zero addend: there math.FMA's software fallback, which a CPU without
// FMA runs, returns a*b + s with the product rounded first, +0 where a
// negative product underflows and the fused result, the assembly's, is −0.
// With s = ±0 and a·b non-zero the exact sum is a·b, rounded once by a*b.
func fma(a, b, s float64) float64 {
	if s == 0 && a != 0 && b != 0 {
		return float64(a * b)
	}
	return math.FMA(a, b, s)
}

func mmStrip4Go(out []float64, ostride int, a []float64, aRow, aK int, b []float64, bstride, kw, jw int) {
	for j := 0; j < jw; j++ {
		var s0, s1, s2, s3 float64
		for p := 0; p < kw; p++ {
			bv := b[p*bstride+j]
			s0 = fma(a[p*aK], bv, s0)
			s1 = fma(a[aRow+p*aK], bv, s1)
			s2 = fma(a[2*aRow+p*aK], bv, s2)
			s3 = fma(a[3*aRow+p*aK], bv, s3)
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
			s = fma(a[p*aK], b[p*bstride+j], s)
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
	if !reaches(len(out), rows, ostride, jw) || !reachesA(len(a), rows, aRow, kw, aK) || kw > len(tab)/2 {
		panic(fmt.Sprintf("tensor: mmKernelShift %d×%d×%d past its operands: out %d stride %d, a %d strides %d,%d, tab %d",
			rows, kw, jw, len(out), ostride, len(a), aRow, aK, len(tab)))
	}
	for p := 0; p < kw; p++ {
		if o, m := tab[2*p], tab[2*p+1]; o < 0 || m < 0 || o > len(b)-jw || m > len(mask)-jw {
			panic(fmt.Sprintf("tensor: mmKernelShift row %d at b %d mask %d, %d lanes past b %d mask %d", p, o, m, jw, len(b), len(mask)))
		}
	}
	r := 0
	switch level {
	case levelAVX512:
		for ; r+4 <= rows; r += 4 {
			mmShiftStrip4AVX512(&out[r*ostride], ostride, &a[r*aRow], aRow, aK, &b[0], &mask[0], &tab[0], kw, jw)
		}
		if r+2 <= rows {
			mmShiftStrip2AVX512(&out[r*ostride], ostride, &a[r*aRow], aRow, aK, &b[0], &mask[0], &tab[0], kw, jw)
			r += 2
		}
		if r < rows {
			mmShiftStrip1AVX512(&out[r*ostride], &a[r*aRow], aK, &b[0], &mask[0], &tab[0], kw, jw)
		}
		return
	case levelAVX2:
		for ; r+4 <= rows; r += 4 {
			mmShiftStrip4AVX2(&out[r*ostride], ostride, &a[r*aRow], aRow, aK, &b[0], &mask[0], &tab[0], kw, jw)
		}
		if r+2 <= rows {
			mmShiftStrip2AVX2(&out[r*ostride], ostride, &a[r*aRow], aRow, aK, &b[0], &mask[0], &tab[0], kw, jw)
			r += 2
		}
		if r < rows {
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
			s0 = fma(a[p*aK], bv, s0)
			s1 = fma(a[aRow+p*aK], bv, s1)
			s2 = fma(a[2*aRow+p*aK], bv, s2)
			s3 = fma(a[3*aRow+p*aK], bv, s3)
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
			s = fma(a[p*aK], maskedLane(b[tab[2*p]+j], mask[tab[2*p+1]+j]), s)
		}
		out[j] += s
	}
}

// rowTable is how mmKernelRows addresses a: row r of the strip starts at
// rowOff[r] and step p adds pOff[p]. Only newRowTable builds one, so every
// offset is non-negative and span bounds every index the two tables can
// name; the kernel then checks one number against len(a) per call instead
// of scanning the tables.
type rowTable struct {
	rowOff, pOff []int
	span         int // 1 + max(rowOff) + max(pOff)
}

// newRowTable copies the two offset tables into a rowTable. It panics on a
// negative offset or a span past math.MaxInt.
func newRowTable(rowOff, pOff []int) *rowTable {
	t := &rowTable{rowOff: slices.Clone(rowOff), pOff: slices.Clone(pOff)}
	hi := [2]int{}
	for i, tab := range [2][]int{t.rowOff, t.pOff} {
		for j, o := range tab {
			if o < 0 {
				panic(fmt.Sprintf("tensor: newRowTable offset %d of table %d is %d", j, i, o))
			}
			hi[i] = max(hi[i], o)
		}
	}
	if hi[0] >= math.MaxInt-hi[1] {
		panic(fmt.Sprintf("tensor: newRowTable span past MaxInt: %d + %d", hi[0], hi[1]))
	}
	t.span = 1 + hi[0] + hi[1]
	return t
}

// mmKernelRows is the contract of mmKernel with a read through a rowTable:
//
//	out[r*ostride+j] += Σ_p a[rowOff[r]+pOff[p]] * b[p*bstride+j]
//
// with the same chains, strips and implementations; a strip of four rows
// loads pOff[p] once for all four. ConvLowering.WeightGrad reads a
// zero-bordered stage of an image through it, row r = (c, ky, kx) a tap
// and p = (oy, ox) an output pixel, so that a[rowOff[r]+pOff[p]] is the
// panel entry lower would write there. The wrapper checks the far corners
// of out and b, that both tables are long enough and that the table's span
// fits in a, before any pointer reaches assembly.
func mmKernelRows(out []float64, ostride int, a []float64, t *rowTable, b []float64, bstride, rows, kw, jw int) {
	if rows <= 0 || kw <= 0 || jw <= 0 {
		return
	}
	if ostride < 0 || bstride < 0 {
		panic(fmt.Sprintf("tensor: mmKernelRows negative stride: out %d b %d", ostride, bstride))
	}
	if rows > len(t.rowOff) || kw > len(t.pOff) || t.span > len(a) {
		panic(fmt.Sprintf("tensor: mmKernelRows %d rows, %d steps over tables of %d, %d spanning %d of a %d",
			rows, kw, len(t.rowOff), len(t.pOff), t.span, len(a)))
	}
	if !reaches(len(out), rows, ostride, jw) || !reaches(len(b), kw, bstride, jw) {
		panic(fmt.Sprintf("tensor: mmKernelRows %d×%d×%d past its operands: out %d stride %d, b %d stride %d",
			rows, kw, jw, len(out), ostride, len(b), bstride))
	}
	r := 0
	switch level {
	case levelAVX512:
		for ; r+4 <= rows; r += 4 {
			mmRowsStrip4AVX512(&out[r*ostride], ostride, &a[0], &t.rowOff[r], &t.pOff[0], &b[0], bstride, kw, jw)
		}
		if r+2 <= rows {
			mmRowsStrip2AVX512(&out[r*ostride], ostride, &a[0], &t.rowOff[r], &t.pOff[0], &b[0], bstride, kw, jw)
			r += 2
		}
		if r < rows {
			mmRowsStrip1AVX512(&out[r*ostride], &a[t.rowOff[r]], &t.pOff[0], &b[0], bstride, kw, jw)
		}
		return
	case levelAVX2:
		for ; r+4 <= rows; r += 4 {
			mmRowsStrip4AVX2(&out[r*ostride], ostride, &a[0], &t.rowOff[r], &t.pOff[0], &b[0], bstride, kw, jw)
		}
		if r+2 <= rows {
			mmRowsStrip2AVX2(&out[r*ostride], ostride, &a[0], &t.rowOff[r], &t.pOff[0], &b[0], bstride, kw, jw)
			r += 2
		}
		if r < rows {
			mmRowsStrip1AVX2(&out[r*ostride], &a[t.rowOff[r]], &t.pOff[0], &b[0], bstride, kw, jw)
		}
		return
	}
	for ; r+4 <= rows; r += 4 {
		mmRowsStrip4Go(out[r*ostride:], ostride, a, t.rowOff[r:r+4], t.pOff[:kw], b, bstride, jw)
	}
	for ; r < rows; r++ {
		mmRowsStrip1Go(out[r*ostride:], a[t.rowOff[r]:], t.pOff[:kw], b, bstride, jw)
	}
}

func mmRowsStrip4Go(out []float64, ostride int, a []float64, rowOff, pOff []int, b []float64, bstride, jw int) {
	a0, a1, a2, a3 := a[rowOff[0]:], a[rowOff[1]:], a[rowOff[2]:], a[rowOff[3]:]
	for j := 0; j < jw; j++ {
		var s0, s1, s2, s3 float64
		for p, o := range pOff {
			bv := b[p*bstride+j]
			s0 = fma(a0[o], bv, s0)
			s1 = fma(a1[o], bv, s1)
			s2 = fma(a2[o], bv, s2)
			s3 = fma(a3[o], bv, s3)
		}
		out[j] += s0
		out[ostride+j] += s1
		out[2*ostride+j] += s2
		out[3*ostride+j] += s3
	}
}

func mmRowsStrip1Go(out, a []float64, pOff []int, b []float64, bstride, jw int) {
	for j := 0; j < jw; j++ {
		s := 0.0
		for p, o := range pOff {
			s = fma(a[o], b[p*bstride+j], s)
		}
		out[j] += s
	}
}
