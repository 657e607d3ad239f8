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
const (
	// matMulTransA column tile: a k x 64 slab of b is 512 B per k step.
	taJB = 64
	// matMulTransB keeps a j-tile of B rows (about 16 KiB) L1-resident
	// across the whole sweep over A's rows.
	tbTileFloats = 2048
)

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
// element of dst is assigned, so no zeroing is needed.
func MatMulTransBInto(dst, a, b *Tensor) {
	m, k := a.Shape[0], a.Shape[1]
	if b.Shape[1] != k || dst.Shape[0] != m || dst.Shape[1] != b.Shape[0] {
		panic(fmt.Sprintf("tensor: MatMulTransBInto shapes dst%v a%v b%v", dst.Shape, a.Shape, b.Shape))
	}
	matMulTransB(dst, a, b)
}

// matMulTransB computes out[i][j] = a[i]·b[j] (row dot products). B's rows
// are tiled so a j-tile stays L1-resident across the whole sweep over A's
// rows (B is streamed from L2 once per tile instead of once per A row), and
// a 2x2 register block gives four independent accumulation chains per four
// loads. Each chain is one output element's dot product with p ascending —
// the naive order.
func matMulTransB(out, a, b *Tensor) {
	m, k := a.Shape[0], a.Shape[1]
	n := b.Shape[0]
	jt := tbTileFloats / k
	if jt < 4 {
		jt = 4
	}
	for j0 := 0; j0 < n; j0 += jt {
		j1 := min(j0+jt, n)
		i := 0
		for ; i+2 <= m; i += 2 {
			ar0 := a.Data[i*k : i*k+k]
			ar1 := a.Data[(i+1)*k : (i+1)*k+k]
			or0 := out.Data[i*n : (i+1)*n]
			or1 := out.Data[(i+1)*n : (i+2)*n]
			j := j0
			for ; j+2 <= j1; j += 2 {
				br0 := b.Data[j*k : j*k+k]
				br1 := b.Data[(j+1)*k : (j+1)*k+k]
				var s00, s01, s10, s11 float64
				for p, av0 := range ar0 {
					av1 := ar1[p]
					bv0, bv1 := br0[p], br1[p]
					s00 += av0 * bv0
					s01 += av0 * bv1
					s10 += av1 * bv0
					s11 += av1 * bv1
				}
				or0[j], or0[j+1] = s00, s01
				or1[j], or1[j+1] = s10, s11
			}
			for ; j < j1; j++ {
				brow := b.Data[j*k : j*k+k]
				var s0, s1 float64
				for p, av := range ar0 {
					s0 += av * brow[p]
				}
				for p, av := range ar1 {
					s1 += av * brow[p]
				}
				or0[j], or1[j] = s0, s1
			}
		}
		for ; i < m; i++ {
			arow := a.Data[i*k : (i+1)*k]
			orow := out.Data[i*n : (i+1)*n]
			for j := j0; j < j1; j++ {
				brow := b.Data[j*k : (j+1)*k]
				s := 0.0
				for p, av := range arow {
					s += av * brow[p]
				}
				orow[j] = s
			}
		}
	}
}
