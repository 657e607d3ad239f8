package tensor

import "fmt"

// Tiling geometry for the blocked kernels, in float64 elements. All
// decisions below are functions of the operand shapes alone — never of the
// data — so a given shape always takes the same code path and produces the
// same float bits.
//
// Every kernel accumulates each output element over k in ascending order,
// exactly like the naive triple loop: tiles partition the i/j (output)
// space and leave k whole, so the per-element addition chain is
// byte-for-byte the naive chain. That is the invariant behind the
// backend-equivalence and resume-fingerprint suites; do not reorder k.
//
// The pre-tiling kernels skipped zero a-elements; the tiled ones do not
// (see the sparsity note on mmKernel). On finite data the two are
// bit-identical: the dropped/added terms are av*bv with av == ±0, whose
// product is ±0, and x + ±0 == x bitwise for every finite x when the
// accumulator starts at +0. Inputs are finite throughout training, so the
// change is invisible to the fingerprint.
// matMulTransA column tile: a k x 64 slab of b is 512 B per k step.
const taJB = 64

// MatMulInto computes dst = a @ b for 2-D tensors a [m,k] and b [k,n] into
// a preallocated dst. dst must not alias a or b.
//
// The product is one mmKernel call (four output rows against a shared B
// row, accumulators in registers) over B in place, on the calling
// goroutine: it never allocates, and results are bit-reproducible across
// machines.
func MatMulInto(dst, a, b *Tensor) {
	m, k := a.Shape[0], a.Shape[1]
	n := b.Shape[1]
	if b.Shape[0] != k || dst.Shape[0] != m || dst.Shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulInto shapes dst%v a%v b%v", dst.Shape, a.Shape, b.Shape))
	}
	dst.Zero()
	mmKernel(dst.Data, n, a.Data, k, 1, b.Data, n, m, k, n)
}

// MatMulTransAInto computes dst = aᵀ @ b into a preallocated dst without
// materializing the transpose of a, which has shape [k, m] (so aᵀ is
// [m, k]); b has shape [k, n]. dst must not alias a or b. It is
// MatMulTransAAdd over a zeroed dst.
func MatMulTransAInto(dst, a, b *Tensor) {
	dst.Zero()
	MatMulTransAAdd(dst, a, b)
}

// MatMulTransAAdd computes dst += aᵀ @ b, shapes as in MatMulTransAInto:
// each element's sum is one chain from +0 over k ascending that joins dst
// once, so over any prior dst it has the bits of MatMulTransAInto's result
// added to it. It is the dense layer's weight gradient, accumulated
// straight into the gradient.
func MatMulTransAAdd(dst, a, b *Tensor) {
	k, m := a.Shape[0], a.Shape[1]
	if b.Shape[0] != k || dst.Shape[0] != m || dst.Shape[1] != b.Shape[1] {
		panic(fmt.Sprintf("tensor: MatMulTransA shapes dst%v a%v b%v", dst.Shape, a.Shape, b.Shape))
	}
	matMulTransA(dst.Data, b.Shape[1], a.Data, b.Data, k, m, b.Shape[1])
}

// matMulTransA accumulates out [m, n] += aᵀ @ b for a [k, m] and b [k, n],
// out's rows ldo apart: mmKernel with A's strides swapped, so the
// transpose is never materialized. The output is cut into column tiles so the k x taJB slab of
// b every row strip streams stays cache-resident across the strips. Tiles
// partition j only, so each out element's k chain is untouched.
func matMulTransA(out []float64, ldo int, a, b []float64, k, m, n int) {
	if m == 0 || k == 0 {
		return // empty operands cannot be tile-sliced
	}
	for j0 := 0; j0 < n; j0 += taJB {
		mmKernel(out[j0:], ldo, a, 1, m, b[j0:], n, m, k, min(taJB, n-j0))
	}
}

// VecMatMulAdd computes dst += x @ b for a row vector x [k] and a row-major
// b [k, n] given flat: dst[j] += Σ_p x[p]·b[p*n+j], the sum one chain with
// p ascending from +0 that joins dst once — mmKernel's one-row strip, lanes
// over j, called directly: the lengths checked here are every bound the
// strip reads, and the LSTM cell runs this product on every step.
func VecMatMulAdd(dst, x, b []float64) {
	n, k := len(dst), len(x)
	if len(b) != k*n || n > 0 && len(b)/n != k {
		panic(fmt.Sprintf("tensor: VecMatMulAdd lens dst %d x %d b %d", n, k, len(b)))
	}
	switch {
	case n == 0 || k == 0:
	case level == levelAVX512:
		mmStrip1AVX512(&dst[0], &x[0], 1, &b[0], n, k, n)
	case level == levelAVX2:
		mmStrip1AVX2(&dst[0], &x[0], 1, &b[0], n, k, n)
	default:
		mmStrip1Go(dst, x, 1, b, n, k, n)
	}
}

// MatMulTransBInto computes dst = a @ bᵀ into a preallocated dst without
// materializing the transpose of b; a has shape [m, k] and b [n, k]. It is
// the dense layer's input gradient. dst must not alias a or b. Every
// element of dst is one row dot product a[i]·b[j], a chain with p ascending
// from +0 that is assigned once, so no zeroing is needed. Columns go in
// blocks of four, so each loaded a[i][p] feeds four independent chains,
// then one at a time. Nothing is tiled: at every Dense shape the profiles
// build, all of b is a few KiB and stays L1-resident across the sweep over
// a's rows.
func MatMulTransBInto(dst, a, b *Tensor) {
	m, k := a.Shape[0], a.Shape[1]
	n := b.Shape[0]
	if b.Shape[1] != k || dst.Shape[0] != m || dst.Shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulTransBInto shapes dst%v a%v b%v", dst.Shape, a.Shape, b.Shape))
	}
	for i := range m {
		arow := a.Data[i*k : (i+1)*k]
		orow := dst.Data[i*n : (i+1)*n]
		j := 0
		for ; j+4 <= n; j += 4 {
			b0 := b.Data[j*k:][:len(arow)]
			b1 := b.Data[(j+1)*k:][:len(arow)]
			b2 := b.Data[(j+2)*k:][:len(arow)]
			b3 := b.Data[(j+3)*k:][:len(arow)]
			var s0, s1, s2, s3 float64
			for p, av := range arow {
				s0 += float64(av * b0[p])
				s1 += float64(av * b1[p])
				s2 += float64(av * b2[p])
				s3 += float64(av * b3[p])
			}
			orow[j], orow[j+1], orow[j+2], orow[j+3] = s0, s1, s2, s3
		}
		for ; j < n; j++ {
			brow := b.Data[j*k:][:len(arow)]
			s := 0.0
			for p, av := range arow {
				s += float64(av * brow[p])
			}
			orow[j] = s
		}
	}
}
