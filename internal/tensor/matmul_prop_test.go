package tensor

import (
	"testing"

	"lcasgd/internal/rng"
)

// The tiled kernels promise more than numerical closeness: because tiling
// partitions the output space and leaves every element's ascending-k
// accumulation chain intact, they must match a naive triple loop (which has
// the same chain) bit for bit. These tests demand exact equality — maxDiff
// == 0 — across a shape grid that covers degenerate dims, sub-tile sizes,
// exact tile multiples, off-by-one-past-a-tile sizes, and operands larger
// than any layer issues.

// naiveMatMulTransA mirrors matMulTransA's per-element chain: ascending p.
func naiveMatMulTransA(a, b *Tensor) *Tensor {
	k, m, n := a.Shape[0], a.Shape[1], b.Shape[1]
	out := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for p := 0; p < k; p++ {
				s += a.At(p, i) * b.At(p, j)
			}
			out.Set(i, j, s)
		}
	}
	return out
}

// naiveMatMulTransB mirrors MatMulTransBInto's per-element chain: ascending p.
func naiveMatMulTransB(a, b *Tensor) *Tensor {
	m, k, n := a.Shape[0], a.Shape[1], b.Shape[0]
	out := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for p := 0; p < k; p++ {
				s += a.At(i, p) * b.At(j, p)
			}
			out.Set(i, j, s)
		}
	}
	return out
}

var propDims = []int{1, 2, 3, 7, 64, 65, 100}

// sparsify zeroes roughly half the elements (exact zeros, like post-ReLU
// activations) to exercise the data-dependent skip paths.
func sparsify(t *Tensor, g *rng.RNG) {
	for i := range t.Data {
		if g.Float64() < 0.5 {
			t.Data[i] = 0
		}
	}
}

func TestMatMulTiledBitExactGrid(t *testing.T) {
	g := rng.New(101)
	for _, m := range propDims {
		for _, k := range propDims {
			for _, n := range propDims {
				for _, sparse := range []bool{false, true} {
					a := randMat(g, m, k)
					b := randMat(g, k, n)
					if sparse {
						sparsify(a, g)
						sparsify(b, g)
					}
					if d := maxDiff(mul(a, b), naiveMatMul(a, b)); d != 0 {
						t.Fatalf("MatMulInto m=%d k=%d n=%d sparse=%v: diff %g", m, k, n, sparse, d)
					}
				}
			}
		}
	}
}

func TestMatMulTransATiledBitExactGrid(t *testing.T) {
	g := rng.New(103)
	for _, m := range propDims {
		for _, k := range propDims {
			for _, n := range propDims {
				for _, sparse := range []bool{false, true} {
					a := randMat(g, k, m) // aᵀ is m x k
					b := randMat(g, k, n)
					if sparse {
						sparsify(a, g)
					}
					if d := maxDiff(mulTA(a, b), naiveMatMulTransA(a, b)); d != 0 {
						t.Fatalf("MatMulTransAInto m=%d k=%d n=%d sparse=%v: diff %g", m, k, n, sparse, d)
					}
				}
			}
		}
	}
}

func TestMatMulTransBTiledBitExactGrid(t *testing.T) {
	g := rng.New(107)
	for _, m := range propDims {
		for _, k := range propDims {
			for _, n := range propDims {
				a := randMat(g, m, k)
				b := randMat(g, n, k) // bᵀ is k x n
				if d := maxDiff(mulTB(a, b), naiveMatMulTransB(a, b)); d != 0 {
					t.Fatalf("MatMulTransBInto m=%d k=%d n=%d: diff %g", m, k, n, d)
				}
			}
		}
	}
}

// TestMatMulLargeBBitExact checks products whose B is larger than any conv
// group's operand (more than 16 Ki elements) against the naive chain bit
// for bit: the kernel reads B in place at any size.
func TestMatMulLargeBBitExact(t *testing.T) {
	g := rng.New(109)
	for _, dims := range [][3]int{
		{9, 300, 130},
		{5, 256, 128},
		{6, 257, 129},
		{3, 384, 257},
	} {
		m, k, n := dims[0], dims[1], dims[2]
		a := randMat(g, m, k)
		b := randMat(g, k, n)
		if d := maxDiff(mul(a, b), naiveMatMul(a, b)); d != 0 {
			t.Fatalf("MatMulInto m=%d k=%d n=%d: diff %g", m, k, n, d)
		}
	}
}

// TestMatMulIntoNeverAllocates pins that MatMulInto runs on the calling
// goroutine out of its operands alone, whatever the shape: many rows, a B
// past any cache budget, and the tall-thin product the benchmark probes.
// Each is also checked against the naive chain bit for bit.
func TestMatMulIntoNeverAllocates(t *testing.T) {
	g := rng.New(113)
	for _, dims := range [][3]int{{130, 90, 110}, {70, 200, 100}, {1280, 54, 6}} {
		m, k, n := dims[0], dims[1], dims[2]
		a := randMat(g, m, k)
		b := randMat(g, k, n)
		dst := New(m, n)
		if allocs := testing.AllocsPerRun(5, func() { MatMulInto(dst, a, b) }); allocs != 0 {
			t.Fatalf("MatMulInto m=%d k=%d n=%d allocates %v times", m, k, n, allocs)
		}
		if d := maxDiff(dst, naiveMatMul(a, b)); d != 0 {
			t.Fatalf("MatMulInto m=%d k=%d n=%d: diff %g", m, k, n, d)
		}
	}
}

// TestVecMatMulAddBitExact checks the row-vector entry bit for bit against
// a dirty destination plus the naive chain from +0, with exact zeros in x —
// and that it neither allocates nor accepts mismatched lengths.
func TestVecMatMulAddBitExact(t *testing.T) {
	g := rng.New(127)
	for _, dims := range [][2]int{{1, 1}, {9, 32}, {16, 20}, {65, 256}, {128, 256}, {200, 131}} {
		k, n := dims[0], dims[1]
		x, b := randMat(g, 1, k), randMat(g, k, n)
		sparsify(x, g)
		dst := randMat(g, 1, n)
		want := naiveMatMul(x, b)
		for j, v := range dst.Data {
			want.Data[j] = v + want.Data[j]
		}
		VecMatMulAdd(dst.Data, x.Data, b.Data)
		if i := bitsEqual(dst.Data, want.Data); i >= 0 {
			t.Fatalf("VecMatMulAdd k=%d n=%d: dst[%d] = %x, want %x", k, n, i, dst.Data[i], want.Data[i])
		}
		if a := testing.AllocsPerRun(5, func() { VecMatMulAdd(dst.Data, x.Data, b.Data) }); a != 0 {
			t.Fatalf("VecMatMulAdd k=%d n=%d allocates %v times", k, n, a)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on a length mismatch")
		}
	}()
	VecMatMulAdd(make([]float64, 4), make([]float64, 3), make([]float64, 11))
}

func TestConvSegmentsMatchReference(t *testing.T) {
	// The table-driven Im2Col/Col2Im against a per-element reference,
	// bitwise, across strides and pads including pad wider than the input.
	for _, g := range []ConvGeom{
		{InC: 2, InH: 5, InW: 5, KH: 3, KW: 3, Stride: 1, Pad: 1},
		{InC: 3, InH: 8, InW: 8, KH: 3, KW: 3, Stride: 2, Pad: 1},
		{InC: 1, InH: 4, InW: 4, KH: 1, KW: 1, Stride: 1, Pad: 0},
		{InC: 2, InH: 3, InW: 3, KH: 3, KW: 3, Stride: 1, Pad: 3},
		{InC: 1, InH: 2, InW: 7, KH: 5, KW: 5, Stride: 2, Pad: 4},
	} {
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
		r := rng.New(127)
		img := make([]float64, g.InC*g.InH*g.InW)
		r.FillNormal(img, 1)
		got := make([]float64, g.ColRows()*g.ColCols())
		Im2Col(got, img, g)
		want := make([]float64, len(got))
		refIm2Col(want, img, g)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("Im2Col %+v: element %d got %g want %g", g, i, got[i], want[i])
			}
		}

		col := make([]float64, len(got))
		r.FillNormal(col, 1)
		gotImg := make([]float64, len(img))
		Col2Im(gotImg, col, g)
		wantImg := make([]float64, len(img))
		refCol2Im(wantImg, col, g)
		for i := range wantImg {
			if gotImg[i] != wantImg[i] {
				t.Fatalf("Col2Im %+v: element %d got %g want %g", g, i, gotImg[i], wantImg[i])
			}
		}
	}
}

// refIm2Col is the per-element lowering: entry (r, p) of the channel-major
// [ColCols, ColRows] panel is the pixel tap r = (c, ky, kx) reads at output
// pixel p = (oy, ox), or 0 in the padding.
func refIm2Col(dst []float64, img []float64, g ConvGeom) {
	hw := g.ColRows()
	for oy := 0; oy < g.OutH(); oy++ {
		iy0 := oy*g.Stride - g.Pad
		for ox := 0; ox < g.OutW(); ox++ {
			ix0 := ox*g.Stride - g.Pad
			p := oy*g.OutW() + ox
			r := 0
			for c := 0; c < g.InC; c++ {
				for ky := 0; ky < g.KH; ky++ {
					iy := iy0 + ky
					for kx := 0; kx < g.KW; kx++ {
						ix := ix0 + kx
						if iy >= 0 && iy < g.InH && ix >= 0 && ix < g.InW {
							dst[r*hw+p] = img[c*g.InH*g.InW+iy*g.InW+ix]
						} else {
							dst[r*hw+p] = 0
						}
						r++
					}
				}
			}
		}
	}
}

// refCol2Im is the per-element adjoint. Output pixels are visited in
// ascending (oy, ox), which is the order every image pixel must receive its
// contributions in.
func refCol2Im(dst []float64, col []float64, g ConvGeom) {
	hw := g.ColRows()
	for oy := 0; oy < g.OutH(); oy++ {
		iy0 := oy*g.Stride - g.Pad
		for ox := 0; ox < g.OutW(); ox++ {
			ix0 := ox*g.Stride - g.Pad
			p := oy*g.OutW() + ox
			r := 0
			for c := 0; c < g.InC; c++ {
				for ky := 0; ky < g.KH; ky++ {
					iy := iy0 + ky
					for kx := 0; kx < g.KW; kx++ {
						ix := ix0 + kx
						if iy >= 0 && iy < g.InH && ix >= 0 && ix < g.InW {
							dst[c*g.InH*g.InW+iy*g.InW+ix] += col[r*hw+p]
						}
						r++
					}
				}
			}
		}
	}
}
