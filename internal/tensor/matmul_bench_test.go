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
// shapes, at the group sizes NewConvLowering picks for those layers.
//
// BenchmarkMatMul and BenchmarkMatMulTransA run every shape on both
// implementations of the micro-kernel: /asm (skipped where this build or
// CPU has none) and /go, which is what arm64 and -race builds execute.
//
// Each shape also runs with A at ~50% exact zeros — the sparsity profile of
// post-ReLU activations — which is how the pre-tiling kernels' data-
// dependent `if av == 0` skip was adjudicated: the unpredictable branch on
// scattered zeros cost 25-35%, and even the always-false compare on dense
// data ~20% in the tight inner loop, so the skip was dropped and kernel
// timing is input-independent. The _relu variants stay as the regression
// guard for that property: sparse and dense medians of the same shape
// should track within noise.

type mmShape struct {
	name    string
	m, k, n int // out [m, n], inner dimension k
}

var benchShapes = []mmShape{
	{"mlp_50x144x96", 50, 144, 96},        // MLP hidden layer, full batch
	{"grouped_dx_27x6x256", 27, 6, 256},   // cifar-quick stem, group of 4 8x8 images
	{"grouped_dx_54x6x128", 54, 6, 128},   // cifar-quick 8x8 stage, group of 2
	{"grouped_dx_216x24x36", 216, 24, 36}, // cifar-quick deepest conv, group of 9 2x2 images
	{"grouped_dx_27x8x288", 27, 8, 288},   // imagenet-quick 12x12 stem, group of 2
	{"grouped_dx_432x48x18", 432, 48, 18}, // imagenet-full stage-3 conv, group of 2 3x3 images
	{"square_128", 128, 128, 128},         // generic mid-size
	{"large_b_64x300x130", 64, 300, 130},  // B of 39 000 elements, past any layer's
}

// transAShapes: the forward products of the same layers, Y [OutC, n*HW] =
// Wᵀ @ panel, and the dense weight gradient xᵀ @ dY.
var transAShapes = []mmShape{
	{"grouped_fwd_6x27x256", 6, 27, 256},
	{"grouped_fwd_6x54x128", 6, 54, 128},
	{"grouped_fwd_24x216x36", 24, 216, 36},
	{"grouped_fwd_8x27x288", 8, 27, 288},
	{"grouped_fwd_48x432x18", 48, 432, 18},
	{"mlp_dw_144x50x96", 144, 50, 96},
}

// benchKernels times op once per shape, sparsity and micro-kernel
// implementation level, on an A built by mkA (sparsified for the _relu variant).
func benchKernels(b *testing.B, shapes []mmShape, mkA func(g *rng.RNG, s mmShape) *Tensor, op func(dst, a, y *Tensor)) {
	for _, s := range shapes {
		for _, sparse := range []bool{false, true} {
			for kernel := levelAVX512; kernel >= levelGo; kernel-- {
				name := s.name
				if sparse {
					name += "_relu"
				}
				b.Run(name+"/"+levelNames[kernel], func(b *testing.B) {
					g := rng.New(7)
					a := mkA(g, s)
					if sparse {
						sparsify(a, g)
					}
					y := randMat(g, s.k, s.n)
					dst := New(s.m, s.n)
					run := func() {
						b.SetBytes(int64(8 * s.m * s.k * s.n))
						b.ResetTimer()
						for i := 0; i < b.N; i++ {
							op(dst, a, y)
						}
					}
					needLevel(b, kernel)
					atLevel(kernel, run)
				})
			}
		}
	}
}

func BenchmarkMatMul(b *testing.B) {
	benchKernels(b, benchShapes, func(g *rng.RNG, s mmShape) *Tensor { return randMat(g, s.m, s.k) }, MatMulInto)
}

func BenchmarkMatMulTransA(b *testing.B) {
	// A is stored [k, m]: W for the forward product, the (post-ReLU-sparse)
	// layer input for the dense weight gradient.
	benchKernels(b, transAShapes, func(g *rng.RNG, s mmShape) *Tensor { return randMat(g, s.k, s.m) }, MatMulTransAInto)
}

func BenchmarkMatMulTransB(b *testing.B) {
	// Dense.Backward's input gradient dY [batch, out] @ Wᵀ, W being
	// [in, out], is the kernel's remaining caller.
	for _, s := range []mmShape{
		{"mlp_dx_50x96x144", 50, 96, 144},
		{"head_dx_50x10x24", 50, 10, 24},
		{"fleet_dx_4x16x16", 4, 16, 16},
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

// benchModelGroups times op over every convolution of the quick-CIFAR net
// at batch 20, group by group as Conv2D calls it (short last group
// included): one iteration is the gather loop lower over every layer (a
// training step's Forward runs it on the gather layers only) or the input
// gradients of one training step (InputGrad). op gets the
// group's panel, its slice of the batch x [n, InC*InH*InW], the weights
// and the group's output gradient dY [OutC, n*HW].
func benchModelGroups(b *testing.B, op func(low *ConvLowering, panel, x, w, dY []float64, n int)) {
	const batch = 20
	type layer struct {
		low             *ConvLowering
		panel, x, w, dY []float64
		inFeat          int
	}
	r := rng.New(7)
	geoms, outCs := resnetConvs(8, 6, []int{1, 1, 1})
	var layers []layer
	for i, g := range geoms {
		l := layer{low: NewConvLowering(g, outCs[i]), inFeat: g.InC * g.InH * g.InW}
		cols := l.low.Group() * g.ColRows()
		l.panel = make([]float64, g.ColCols()*cols)
		l.x = make([]float64, batch*l.inFeat)
		l.w = make([]float64, g.ColCols()*outCs[i])
		l.dY = make([]float64, outCs[i]*cols)
		for _, s := range [][]float64{l.panel, l.x, l.w, l.dY} {
			r.FillNormal(s, 1)
		}
		layers = append(layers, l)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, l := range layers {
			for i0 := 0; i0 < batch; i0 += l.low.Group() {
				n := min(l.low.Group(), batch-i0)
				op(l.low, l.panel[:n*len(l.panel)/l.low.Group()], l.x[i0*l.inFeat:(i0+n)*l.inFeat],
					l.w, l.dY[:n*len(l.dY)/l.low.Group()], n)
			}
		}
	}
}

func BenchmarkConvLowerModel(b *testing.B) {
	benchModelGroups(b, func(low *ConvLowering, panel, x, _, _ []float64, n int) { low.tab.lower(panel, x, n, low.g) })
}

func BenchmarkConvInputGradModel(b *testing.B) {
	benchModelGroups(b, func(low *ConvLowering, _, dx, w, dY []float64, n int) { low.InputGrad(dx, w, dY, n) })
}

// BenchmarkVecMatMulAdd times the LSTM cell's product, [x; h] against the
// 4H gate columns, at each implementation level: H = 8 (x of 8 or 1) and
// H = 24.
func BenchmarkVecMatMulAdd(b *testing.B) {
	for _, s := range []struct {
		name string
		k, n int
	}{{"X8_H8", 16, 32}, {"X1_H8", 9, 32}, {"X24_H24", 48, 96}} {
		for kernel := levelAVX512; kernel >= levelGo; kernel-- {
			b.Run(s.name+"/"+levelNames[kernel], func(b *testing.B) {
				needLevel(b, kernel)
				g := rng.New(7)
				dst, x, w := make([]float64, s.n), make([]float64, s.k), make([]float64, s.k*s.n)
				g.FillNormal(x, 1)
				g.FillNormal(w, 1)
				atLevel(kernel, func() {
					for i := 0; i < b.N; i++ {
						VecMatMulAdd(dst, x, w)
					}
				})
			})
		}
	}
}
