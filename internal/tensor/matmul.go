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
// [m, k]); b has shape [k, n]. It is the dense layer's weight gradient.
// dst must not alias a or b.
func MatMulTransAInto(dst, a, b *Tensor) {
	k, m := a.Shape[0], a.Shape[1]
	if b.Shape[0] != k || dst.Shape[0] != m || dst.Shape[1] != b.Shape[1] {
		panic(fmt.Sprintf("tensor: MatMulTransAInto shapes dst%v a%v b%v", dst.Shape, a.Shape, b.Shape))
	}
	dst.Zero()
	matMulTransA(dst.Data, a.Data, b.Data, k, m, b.Shape[1])
}

// matMulTransA accumulates out [m, n] += aᵀ @ b for a [k, m] and b [k, n]:
// mmKernel with A's strides swapped, so the transpose is never
// materialized. The output is cut into column tiles so the k x taJB slab of
// b every row strip streams stays cache-resident across the strips. Tiles
// partition j only, so each out element's k chain is untouched.
func matMulTransA(out, a, b []float64, k, m, n int) {
	if m == 0 || k == 0 {
		return // empty operands cannot be tile-sliced
	}
	for j0 := 0; j0 < n; j0 += taJB {
		mmKernel(out[j0:], n, a, 1, m, b[j0:], n, m, k, min(taJB, n-j0))
	}
}

// VecMatMulAdd computes dst += x @ b for a row vector x [k] and a row-major
// b [k, n] given flat: dst[j] += Σ_p x[p]·b[p*n+j], the sum one chain with
// p ascending from +0 that joins dst once — the one-row call of mmKernel,
// lanes over j.
func VecMatMulAdd(dst, x, b []float64) {
	n, k := len(dst), len(x)
	if len(b) != k*n {
		panic(fmt.Sprintf("tensor: VecMatMulAdd lens dst %d x %d b %d", n, k, len(b)))
	}
	mmKernel(dst, n, x, k, 1, b, n, 1, k, n)
}

// MatMulTransBInto computes dst = a @ bᵀ into a preallocated dst without
// materializing the transpose of b; a has shape [m, k] and b [n, k]. It is
// the dense layer's input gradient. dst must not alias a or b. Every
// element of dst is one row dot product a[i]·b[j], a chain with p ascending
// from +0 that is assigned once, so no zeroing is needed. Nothing is tiled:
// at every Dense shape the profiles build, all of b is a few KiB and stays
// L1-resident across the sweep over a's rows.
func MatMulTransBInto(dst, a, b *Tensor) {
	m, k := a.Shape[0], a.Shape[1]
	n := b.Shape[0]
	if b.Shape[1] != k || dst.Shape[0] != m || dst.Shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulTransBInto shapes dst%v a%v b%v", dst.Shape, a.Shape, b.Shape))
	}
	for i := range m {
		arow := a.Data[i*k : (i+1)*k]
		orow := dst.Data[i*n : (i+1)*n]
		for j := range orow {
			brow := b.Data[j*k : (j+1)*k]
			s := 0.0
			for p, av := range arow {
				s += av * brow[p]
			}
			orow[j] = s
		}
	}
}
