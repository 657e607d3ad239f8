package tensor

import (
	"fmt"
	"testing"

	"lcasgd/internal/rng"
)

// Kernel benchmarks over the shapes the paper's networks actually emit.
// The MLP head and LSTM predictors emit [batch, in] @ [in, out]. Conv
// layers lower a group of n images to a channel-major panel (conv.go): the
// forward product is MatMulTransA of W [K, OutC] with the panel [K, n*HW],
// the input gradient MatMul of W with dY [OutC, n*HW] — the grouped_*
// shapes. The conv_* shapes are the per-image pixel-major products of the
// earlier lowering, kept so the kernels' own trajectory in BENCH_ps.json
// stays comparable.
// Each shape also runs with A at ~50% exact zeros — the sparsity profile of
// post-ReLU activations — which is how the pre-tiling kernels' data-
// dependent `if av == 0` skip was adjudicated:
//
// Measured on this box (Xeon 2.10GHz, go1.24, 300ms x 5 runs), the skip
// variant of matMulTransA ran conv_stem at ~103µs dense / ~130µs sparse,
// the no-skip variant at ~82µs for both. The unpredictable branch on
// scattered zeros cost 25-35%, and even the always-false compare on dense
// data cost ~20% in the tight inner loop — so the skip was dropped from
// every tiled kernel and their timing is now input-independent. The _relu
// variants below stay as the regression guard for that property: sparse
// and dense medians of the same shape should track within noise.

type mmShape struct {
	name    string
	m, k, n int
}

var benchShapes = []mmShape{
	{"mlp_50x144x96", 50, 144, 96},         // MLP hidden layer, full batch
	{"conv_stem_144x108x12", 144, 108, 12}, // ResNetLite50 stem, 12x12 input
	{"conv_mid_36x216x24", 36, 216, 24},    // stage-2 3x3 conv
	{"conv_deep_9x432x48", 9, 432, 48},     // stage-3 3x3 conv
	{"grouped_dx_54x6x128", 54, 6, 128},    // quick 8x8 stage: W @ dY, two images
	{"grouped_dx_432x48x18", 432, 48, 18},  // stage-3 3x3 conv: W @ dY, two images
	{"square_128", 128, 128, 128},          // generic mid-size
	{"packed_64x300x130", 64, 300, 130},    // exercises the packed-panel path
}

func benchMats(m, k, n int, sparse bool) (*Tensor, *Tensor) {
	g := rng.New(7)
	a := randMat(g, m, k)
	b := randMat(g, k, n)
	if sparse {
		sparsify(a, g)
	}
	return a, b
}

func BenchmarkMatMul(b *testing.B) {
	for _, s := range benchShapes {
		for _, sparse := range []bool{false, true} {
			name := s.name
			if sparse {
				name += "_relu"
			}
			b.Run(name, func(b *testing.B) {
				x, y := benchMats(s.m, s.k, s.n, sparse)
				dst := New(s.m, s.n)
				b.SetBytes(int64(8 * s.m * s.k * s.n))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					MatMulInto(dst, x, y)
				}
			})
		}
	}
}

func BenchmarkMatMulTransA(b *testing.B) {
	// conv_*: the earlier lowering's weight gradient, colᵀ [ColCols, HW] @
	// dOut [HW, OutC]; A is the post-ReLU-sparse operand. grouped_fwd_*:
	// today's forward product, Wᵀ [OutC, K] @ panel [K, n*HW].
	for _, s := range []mmShape{
		{"conv_stem", 144, 108, 12},
		{"conv_mid", 36, 216, 24},
		{"conv_deep", 9, 432, 48},
		{"grouped_fwd_quick", 54, 6, 128},
		{"grouped_fwd_deep", 432, 48, 18},
	} {
		for _, sparse := range []bool{false, true} {
			name := s.name
			if sparse {
				name += "_relu"
			}
			b.Run(name, func(b *testing.B) {
				g := rng.New(7)
				a := randMat(g, s.m, s.k) // [HW, ColCols] = aᵀ input
				if sparse {
					sparsify(a, g)
				}
				y := randMat(g, s.m, s.n)
				dst := New(s.k, s.n)
				b.SetBytes(int64(8 * s.m * s.k * s.n))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					MatMulTransAInto(dst, a, y)
				}
			})
		}
	}
}

func BenchmarkMatMulTransB(b *testing.B) {
	// The earlier lowering's input gradient: dOut [HW, OutC] @ Wᵀ, W being
	// [ColCols, OutC]. Dense.Backward is the kernel's remaining caller.
	for _, s := range []mmShape{
		{"conv_stem", 144, 12, 108},
		{"conv_mid", 36, 24, 216},
		{"conv_deep", 9, 48, 432},
	} {
		b.Run(s.name, func(b *testing.B) {
			g := rng.New(7)
			a := randMat(g, s.m, s.k)
			y := randMat(g, s.n, s.k)
			dst := New(s.m, s.n)
			b.SetBytes(int64(8 * s.m * s.k * s.n))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				MatMulTransBInto(dst, a, y)
			}
		})
	}
}

// convBenchGeoms are the lowering benchmarks' shapes: the full-profile
// stem and mid stage, and the quick profiles' 4x4, 3x3 and 2x2 stages, where
// a tap's row is only HW floats long and per-row overhead is what is being
// measured.
var convBenchGeoms = []ConvGeom{
	{InC: 12, InH: 12, InW: 12, KH: 3, KW: 3, Stride: 1, Pad: 1},
	{InC: 24, InH: 6, InW: 6, KH: 3, KW: 3, Stride: 1, Pad: 1},
	{InC: 12, InH: 4, InW: 4, KH: 3, KW: 3, Stride: 1, Pad: 1},
	{InC: 32, InH: 3, InW: 3, KH: 3, KW: 3, Stride: 1, Pad: 1},
	{InC: 24, InH: 2, InW: 2, KH: 3, KW: 3, Stride: 1, Pad: 1},
}

func BenchmarkIm2Col(b *testing.B) {
	for _, g := range convBenchGeoms {
		b.Run(fmt.Sprintf("c%dx%d", g.InC, g.InH), func(b *testing.B) {
			r := rng.New(7)
			img := make([]float64, g.InC*g.InH*g.InW)
			r.FillNormal(img, 1)
			dst := make([]float64, g.ColRows()*g.ColCols())
			b.SetBytes(int64(8 * len(dst)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Im2Col(dst, img, g)
			}
		})
	}
}

func BenchmarkCol2Im(b *testing.B) {
	for _, g := range convBenchGeoms {
		b.Run(fmt.Sprintf("c%dx%d", g.InC, g.InH), func(b *testing.B) {
			r := rng.New(7)
			col := make([]float64, g.ColRows()*g.ColCols())
			r.FillNormal(col, 1)
			dst := make([]float64, g.InC*g.InH*g.InW)
			b.SetBytes(int64(8 * len(col)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Col2Im(dst, col, g)
			}
		})
	}
}
