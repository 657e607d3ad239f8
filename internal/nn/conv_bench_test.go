package nn

import (
	"fmt"
	"testing"

	"lcasgd/internal/rng"
	"lcasgd/internal/tensor"
)

// Layer-level conv benchmarks, on the conv-BN-ReLU unit: the forward
// product, batch statistics and normalize (these same-size shapes read the
// staged input, no panel) and the backward's reductions -> input-gradient
// pass -> weight-grad -> input-grad path (the weight gradient reads a
// zero-bordered stage of each image, the input gradient adds W·dY per tap
// into dx; no panel either)
// at the paper networks' layer shapes, with post-ReLU-like
// activations so the numbers reflect what the training loop actually feeds
// these layers. The 4x4, 3x3 and 2x2 stages are the ones a channel-major
// lowering loses on without grouping (rows only HW long), so they stay in
// the set bench-smoke runs.

type convBenchShape struct {
	name          string
	inC, inH, out int
	batch         int
}

var convBenchShapes = []convBenchShape{
	{"stem12_12x12", 12, 12, 12, 20}, // ResNetLite50 stem, full-ImageNet input
	{"stage2_24_6x6", 24, 6, 24, 20}, // mid stage after one pool
	{"stage3_48_3x3", 48, 3, 48, 20}, // deepest stage
	{"quick_6_8x8", 6, 8, 6, 20},     // quick-profile stem (alloc-pinned path)
	{"quick_12_4x4", 12, 4, 12, 20},  // QuickCIFAR stage 1
	{"quick_24_2x2", 24, 2, 24, 20},  // QuickCIFAR stage 2
	{"quick_32_3x3", 32, 3, 32, 27},  // QuickImageNet stage 2
}

func benchConvInput(c convBenchShape, g *rng.RNG) *tensor.Tensor {
	x := tensor.New(c.batch, c.inC*c.inH*c.inH)
	g.FillNormal(x.Data, 1)
	// Post-ReLU profile: about half the activations are exact zeros.
	for i, v := range x.Data {
		if v < 0 {
			x.Data[i] = 0
		}
	}
	return x
}

func BenchmarkConvForward(b *testing.B) {
	for _, s := range convBenchShapes {
		b.Run(fmt.Sprintf("%s_n%d", s.name, s.batch), func(b *testing.B) {
			g := rng.New(11)
			geom := tensor.ConvGeom{InC: s.inC, InH: s.inH, InW: s.inH, KH: 3, KW: 3, Stride: 1, Pad: 1}
			layer := NewConvBN(NewConv2D("bench", geom, s.out, g), NewBatchNorm("bn", s.out, geom.ColRows()), true)
			x := benchConvInput(s, g)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = layer.Forward(x, true)
			}
		})
	}
}

func BenchmarkConvBackward(b *testing.B) {
	for _, s := range convBenchShapes {
		b.Run(fmt.Sprintf("%s_n%d", s.name, s.batch), func(b *testing.B) {
			g := rng.New(11)
			geom := tensor.ConvGeom{InC: s.inC, InH: s.inH, InW: s.inH, KH: 3, KW: 3, Stride: 1, Pad: 1}
			layer := NewConvBN(NewConv2D("bench", geom, s.out, g), NewBatchNorm("bn", s.out, geom.ColRows()), true)
			x := benchConvInput(s, g)
			out := layer.Forward(x, true)
			grad := tensor.New(out.Shape[0], out.Shape[1])
			g.FillNormal(grad.Data, 0.1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = layer.Backward(grad)
			}
		})
	}
}
