package nn

import (
	"fmt"
	"math"
	"testing"

	"lcasgd/internal/rng"
	"lcasgd/internal/tensor"
)

// refConv is direct convolution with the four accumulation orders of the
// Conv2D contract spelled out loop by loop. It shares no code with the
// lowering: no panel, no table, no matmul kernel.
type refConv struct {
	g    tensor.ConvGeom
	outC int
	w, b []float64 // [ColCols, OutC], [OutC]
}

// tap returns the input pixel tap (c, ky, kx) reads at output pixel
// (oy, ox) of img, and its offset; ok is false in the padding.
func (r refConv) tap(img []float64, c, ky, kx, oy, ox int) (v float64, off int, ok bool) {
	g := r.g
	iy, ix := oy*g.Stride-g.Pad+ky, ox*g.Stride-g.Pad+kx
	if iy < 0 || iy >= g.InH || ix < 0 || ix >= g.InW {
		return 0, 0, false
	}
	off = c*g.InH*g.InW + iy*g.InW + ix
	return img[off], off, true
}

func (r refConv) forward(x []float64, n int) []float64 {
	g := r.g
	outH, outW := g.OutH(), g.OutW()
	inFeat, hw := g.InC*g.InH*g.InW, outH*outW
	out := make([]float64, n*r.outC*hw)
	for i := 0; i < n; i++ {
		img := x[i*inFeat : (i+1)*inFeat]
		for oc := 0; oc < r.outC; oc++ {
			for oy := 0; oy < outH; oy++ {
				for ox := 0; ox < outW; ox++ {
					// Order 1: taps (c, ky, kx) ascending from +0 — a
					// padding tap contributes its 0·w term — then the bias.
					s := 0.0
					row := 0
					for c := 0; c < g.InC; c++ {
						for ky := 0; ky < g.KH; ky++ {
							for kx := 0; kx < g.KW; kx++ {
								v, _, _ := r.tap(img, c, ky, kx, oy, ox)
								s += v * r.w[row*r.outC+oc]
								row++
							}
						}
					}
					out[(i*r.outC+oc)*hw+oy*outW+ox] = s + r.b[oc]
				}
			}
		}
	}
	return out
}

// backward accumulates into wGrad and bGrad and returns dx.
func (r refConv) backward(x, grad []float64, n int, wGrad, bGrad []float64) []float64 {
	g := r.g
	outH, outW := g.OutH(), g.OutW()
	inFeat, hw := g.InC*g.InH*g.InW, outH*outW
	dx := make([]float64, n*inFeat)
	for i := 0; i < n; i++ {
		img := x[i*inFeat : (i+1)*inFeat]
		dOut := grad[i*r.outC*hw : (i+1)*r.outC*hw]
		dImg := dx[i*inFeat : (i+1)*inFeat]
		// Order 3: one addend per image, its sum over p ascending from +0.
		for oc := 0; oc < r.outC; oc++ {
			s := 0.0
			for p := 0; p < hw; p++ {
				s += dOut[oc*hw+p]
			}
			bGrad[oc] += s
		}
		// Order 2: likewise for every weight.
		row := 0
		for c := 0; c < g.InC; c++ {
			for ky := 0; ky < g.KH; ky++ {
				for kx := 0; kx < g.KW; kx++ {
					for oc := 0; oc < r.outC; oc++ {
						s := 0.0
						for oy := 0; oy < outH; oy++ {
							for ox := 0; ox < outW; ox++ {
								v, _, _ := r.tap(img, c, ky, kx, oy, ox)
								s += v * dOut[oc*hw+oy*outW+ox]
							}
						}
						wGrad[row*r.outC+oc] += s
					}
					row++
				}
			}
		}
		// Order 4: output pixels in ascending (oy, ox) over a zeroed image;
		// each patch entry is its own sum over oc ascending from +0.
		for oy := 0; oy < outH; oy++ {
			for ox := 0; ox < outW; ox++ {
				row := 0
				for c := 0; c < g.InC; c++ {
					for ky := 0; ky < g.KH; ky++ {
						for kx := 0; kx < g.KW; kx++ {
							if _, off, ok := r.tap(img, c, ky, kx, oy, ox); ok {
								s := 0.0
								for oc := 0; oc < r.outC; oc++ {
									s += dOut[oc*hw+oy*outW+ox] * r.w[row*r.outC+oc]
								}
								dImg[off] += s
							}
							row++
						}
					}
				}
			}
		}
	}
	return dx
}

func bitsEqual(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: len %d, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %x (%g), want %x (%g)", what, i,
				math.Float64bits(got[i]), got[i], math.Float64bits(want[i]), want[i])
		}
	}
}

// TestConv2DBitIdenticalToDirectConvolution is the float-bits contract of
// the grouped lowering inside its unit: the convolution's output, dx,
// W.Grad and B.Grad — and the batch norm and rectifier after them — equal
// the direct-convolution reference composed with the batch-norm one (see
// checkUnit) bit for bit, over the kernel/stride/pad combinations the
// lowering has cases for, the quick profiles' stage shapes, batch sizes on
// every side of the group size, post-ReLU-like inputs, and gradients
// accumulated over two backward calls into non-zero Grad (the second
// writing dx over the first's).
func TestConv2DBitIdenticalToDirectConvolution(t *testing.T) {
	sq := func(inC, hw, k, stride, pad int) tensor.ConvGeom {
		return tensor.ConvGeom{InC: inC, InH: hw, InW: hw, KH: k, KW: k, Stride: stride, Pad: pad}
	}
	cases := []struct {
		name string
		g    tensor.ConvGeom
		outC int
	}{
		{"3x3_s1_p1", sq(3, 6, 3, 1, 1), 4},
		{"3x3_s2_p1", sq(2, 7, 3, 2, 1), 5},
		{"1x1_s2_p0", sq(6, 8, 1, 2, 0), 12},
		{"3x3_p0", sq(2, 6, 3, 1, 0), 3},
		{"5x5_p2", sq(2, 7, 5, 1, 2), 3},
		{"stride3", sq(2, 10, 3, 3, 1), 4},
		{"nonsquare", tensor.ConvGeom{InC: 2, InH: 5, InW: 9, KH: 3, KW: 2, Stride: 2, Pad: 1}, 3},
		// One output channel: the input-gradient pass's channel tail alone.
		{"3x3_p1_outc1", sq(2, 5, 3, 1, 1), 1},
		{"1x1_s2_outc1", sq(3, 6, 1, 2, 0), 1},
		// QuickCIFAR: 8x8 stem and stage, 8x8 -> 4x4 -> 2x2.
		{"cifarq_stem", sq(3, 8, 3, 1, 1), 6},
		{"cifarq_s0", sq(6, 8, 3, 1, 1), 6},
		{"cifarq_s1_down", sq(6, 8, 3, 2, 1), 12},
		{"cifarq_s1", sq(12, 4, 3, 1, 1), 12},
		{"cifarq_s2_down", sq(12, 4, 3, 2, 1), 24},
		{"cifarq_s2", sq(24, 2, 3, 1, 1), 24},
		// QuickImageNet: 12x12 -> 6x6 -> 3x3.
		{"imagenetq_stem", sq(3, 12, 3, 1, 1), 8},
		{"imagenetq_s1_down", sq(8, 12, 3, 2, 1), 16},
		{"imagenetq_s2_down", sq(16, 6, 3, 2, 1), 32},
		{"imagenetq_s2", sq(32, 3, 3, 1, 1), 32},
		{"imagenetq_s0", sq(8, 12, 3, 1, 1), 8},
		{"imagenetq_s1", sq(16, 6, 3, 1, 1), 16},
		// Same-size kernels wider than the image: taps that reach no pixel.
		{"1x1_in_3x3_p1", sq(3, 1, 3, 1, 1), 4},
		{"2x2_in_5x5_p2", sq(2, 2, 5, 1, 2), 3},
	}
	for ci, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := rng.New(uint64(ci) + 900)
			u := NewConvBN(NewConv2D("c", tc.g, tc.outC, r), NewBatchNorm("bn", tc.outC, tc.g.ColRows()), ci%2 == 0)
			checkUnit(t, u, r, groupSizes(u))
		})
	}
}

// TestConv2DBackwardNeverLowers: no backward pass reads what the forward
// pass left in the convolution's lowering. After the unit's training
// Forward, the lowering runs on a batch of NaN, which fills a gather
// layer's panel and a same-size layer's stage with NaN: both backward
// passes (Backward and the parameter-only one) must still match the
// layered reference bit for bit, without allocating.
func TestConv2DBackwardNeverLowers(t *testing.T) {
	sq := func(inC, hw, k, stride, pad int) tensor.ConvGeom {
		return tensor.ConvGeom{InC: inC, InH: hw, InW: hw, KH: k, KW: k, Stride: stride, Pad: pad}
	}
	for ci, tc := range []struct {
		g    tensor.ConvGeom
		outC int
	}{
		{sq(6, 8, 3, 1, 1), 6},  // same-size
		{sq(6, 8, 3, 2, 1), 12}, // gather, ColCols > OutC
		{sq(6, 8, 1, 2, 0), 12}, // gather, ColCols < OutC
	} {
		r := rng.New(uint64(ci) + 950)
		u := NewConvBN(NewConv2D("c", tc.g, tc.outC, r), NewBatchNorm("bn", tc.outC, tc.g.ColRows()), true)
		c := u.Conv
		const n = 13
		x, nan := tensor.New(n, c.inFeatures()), tensor.New(n, c.inFeatures())
		r.FillNormal(x.Data, 1)
		nan.Fill(math.NaN())
		grad := tensor.New(n, u.OutFeatures())
		r.FillNormal(grad.Data, 0.2)
		ref := newRefUnit(u)
		for _, params := range []bool{false, true} {
			bitsEqual(t, fmt.Sprintf("%+v out", tc.g), u.Forward(x, true).Data, ref.forward(x.Data, n))
			g := min(c.low.Group(), n)
			c.forward(c.y, g*c.Geom.ColRows(), nan.Data, 0, g)
			wantDx := ref.backward(grad.Data)
			if params {
				u.backwardParams(grad)
			} else {
				bitsEqual(t, fmt.Sprintf("%+v dx", tc.g), u.Backward(grad).Data, wantDx)
			}
			bitsEqual(t, fmt.Sprintf("%+v params %v W.Grad", tc.g, params), c.W.Grad.Data, ref.wGrad)
			bitsEqual(t, fmt.Sprintf("%+v params %v B.Grad", tc.g, params), c.B.Grad.Data, ref.bGrad)
			bitsEqual(t, fmt.Sprintf("%+v params %v gamma grad", tc.g, params), u.BN.Gamma.Grad.Data, ref.bn.gammaGrad)
		}
		if a := testing.AllocsPerRun(5, func() { u.backwardParams(grad) }); a != 0 {
			t.Fatalf("%+v: backward pass allocates %v times, want 0", tc.g, a)
		}
	}
}

// TestConv2DDeepStageGroupedZeroAlloc pins the group-size rule on the
// shape that stresses it: a full-profile deep stage (many channels, tiny
// planes) still gets a real group, trains without allocating, and matches
// the layered reference bit for bit.
func TestConv2DDeepStageGroupedZeroAlloc(t *testing.T) {
	deep := tensor.ConvGeom{InC: 48, InH: 3, InW: 3, KH: 3, KW: 3, Stride: 1, Pad: 1}
	u := NewConvBN(NewConv2D("deep", deep, 48, rng.New(5)), NewBatchNorm("bn", 48, 9), true)
	if g := u.Conv.low.Group(); g < 2 {
		t.Fatalf("deep 3x3 stage group = %d, want a real group", g)
	}
	x := tensor.New(7, 48*9)
	rng.New(6).FillNormal(x.Data, 1)
	grad := tensor.New(7, u.OutFeatures())
	rng.New(7).FillNormal(grad.Data, 1)
	iter := func() {
		u.Forward(x, true)
		u.Backward(grad)
	}
	iter()
	if a := testing.AllocsPerRun(10, iter); a != 0 {
		t.Fatalf("deep stage forward+backward allocates %v times, want 0", a)
	}
	ref := newRefUnit(u)
	bitsEqual(t, "deep out", u.Forward(x, true).Data, ref.forward(x.Data, 7))
	bitsEqual(t, "deep dx", u.Backward(grad).Data, ref.backward(grad.Data))
	bitsEqual(t, "deep W.Grad", u.Conv.W.Grad.Data, ref.wGrad)
}
