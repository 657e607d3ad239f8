package nn

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"lcasgd/internal/rng"
	"lcasgd/internal/tensor"
)

// refUnit is the layered composition a ConvBN replaces — Conv2D, then
// BatchNorm, then (if relu) ReLULayer — built from each layer's float-bits
// reference: refConv (direct convolution, the four orders of Conv2D),
// refBatchNorm (one channel at a time) and the branch definitions of
// max(·, 0) and its mask. It holds copies of the unit's parameters,
// gradients and running statistics and keeps its own.
type refUnit struct {
	conv         refConv
	bn           *refBatchNorm
	relu         bool
	wGrad, bGrad []float64
	x            []float64
	n            int
	pre          []float64 // the convolution's image-major output
}

func newRefUnit(u *ConvBN) *refUnit {
	c, bn := u.Conv, u.BN
	return &refUnit{
		conv: refConv{g: c.Geom, outC: c.OutC, w: slices.Clone(c.W.Value.Data), b: slices.Clone(c.B.Value.Data)},
		bn: &refBatchNorm{
			c: bn.C, spatial: bn.Spatial, momentum: bn.Momentum,
			gamma: slices.Clone(bn.Gamma.Value.Data), beta: slices.Clone(bn.Beta.Value.Data),
			gammaGrad: slices.Clone(bn.Gamma.Grad.Data), betaGrad: slices.Clone(bn.Beta.Grad.Data),
			runMean: slices.Clone(bn.RunningMean), runVar: slices.Clone(bn.RunningVar),
			mean: make([]float64, bn.C), variance: make([]float64, bn.C), inv: make([]float64, bn.C),
		},
		relu:  u.ReLU,
		wGrad: slices.Clone(c.W.Grad.Data), bGrad: slices.Clone(c.B.Grad.Data),
	}
}

func (r *refUnit) rectify(v []float64) []float64 {
	out := slices.Clone(v)
	if r.relu {
		for i, a := range out {
			if a > 0 {
				out[i] = a
			} else {
				out[i] = 0
			}
		}
	}
	return out
}

func (r *refUnit) forward(x []float64, n int) []float64 {
	r.x, r.n = x, n
	r.pre = r.conv.forward(x, n)
	r.bn.forward(r.pre, n)
	return r.rectify(r.bn.out)
}

func (r *refUnit) backward(grad []float64) []float64 {
	g := slices.Clone(grad)
	if r.relu {
		for i, a := range r.bn.out {
			if !(a > 0) {
				g[i] = 0
			}
		}
	}
	r.bn.backward(g)
	return r.conv.backward(r.x, r.bn.dx, r.n, r.wGrad, r.bGrad)
}

func (r *refUnit) infer(x []float64, n int) []float64 {
	return r.rectify(r.bn.infer(r.conv.forward(x, n), n))
}

// dirtyUnit points every buffer the unit writes at NaN of the batch's
// shape, so a pass that skips an element shows.
func dirtyUnit(u *ConvBN, n int) {
	nan := func(r, c int) *tensor.Tensor {
		t := tensor.New(r, c)
		t.Fill(math.NaN())
		return t
	}
	u.out, u.pre, u.dx = nan(n, u.OutFeatures()), nan(n, u.OutFeatures()), nan(n, u.Conv.inFeatures())
	for _, s := range [][]float64{u.Conv.y, u.Conv.dYT} {
		for i := range s {
			s[i] = math.NaN()
		}
	}
}

// checkUnit holds u to its layered reference bit for bit over batches of
// each size in ns, one after another on the same unit: the training
// output, the convolution's output (the pre-activation, channel-major),
// the batch and running statistics, then over two backward passes — onto
// gradients that start non-zero — the input gradient and every parameter
// gradient, and last the inference output on the updated running
// statistics. Every buffer the unit writes starts as NaN.
func checkUnit(t *testing.T, u *ConvBN, r *rng.RNG, ns []int) {
	t.Helper()
	c, bn := u.Conv, u.BN
	r.FillNormal(c.B.Value.Data, 0.5)
	r.FillNormal(bn.Gamma.Value.Data, 1)
	r.FillNormal(bn.Beta.Value.Data, 1)
	for _, p := range u.Params() {
		r.FillNormal(p.Grad.Data, 0.3)
	}
	r.FillNormal(bn.RunningMean, 1)
	for i := range bn.RunningVar {
		bn.RunningVar[i] = 0.5 + r.Float64()
	}
	ref := newRefUnit(u)
	hw := c.Geom.ColRows()
	for _, n := range ns {
		what := fmt.Sprintf("relu=%v n=%d ", u.ReLU, n)
		x := tensor.New(n, c.inFeatures())
		r.FillNormal(x.Data, 1)
		for i := range x.Data { // post-ReLU-like: about a third exact zeros
			if r.Float64() < 1.0/3 {
				x.Data[i] = 0
			}
		}
		dirtyUnit(u, n)
		out := u.Forward(x, true)
		bitsEqual(t, what+"out", out.Data, ref.forward(x.Data, n))
		pre := make([]float64, len(ref.pre))
		for i := 0; i < n; i++ {
			for oc := 0; oc < c.OutC; oc++ {
				copy(pre[oc*n*hw+i*hw:][:hw], ref.pre[(i*c.OutC+oc)*hw:])
			}
		}
		bitsEqual(t, what+"conv out", u.pre.Data, pre)
		bitsEqual(t, what+"batch mean", bn.batchMean, ref.bn.mean)
		bitsEqual(t, what+"batch var", bn.batchVar, ref.bn.variance)
		bitsEqual(t, what+"running mean", bn.RunningMean, ref.bn.runMean)
		bitsEqual(t, what+"running var", bn.RunningVar, ref.bn.runVar)
		for pass := 0; pass < 2; pass++ {
			grad := tensor.New(n, u.OutFeatures())
			r.FillNormal(grad.Data, 0.2)
			w := fmt.Sprintf("%spass %d ", what, pass)
			bitsEqual(t, w+"dx", u.Backward(grad).Data, ref.backward(grad.Data))
			bitsEqual(t, w+"W.Grad", c.W.Grad.Data, ref.wGrad)
			bitsEqual(t, w+"B.Grad", c.B.Grad.Data, ref.bGrad)
			bitsEqual(t, w+"gamma grad", bn.Gamma.Grad.Data, ref.bn.gammaGrad)
			bitsEqual(t, w+"beta grad", bn.Beta.Grad.Data, ref.bn.betaGrad)
		}
		u.out.Fill(math.NaN())
		bitsEqual(t, what+"inference out", u.Forward(x, false).Data, ref.infer(x.Data, n))
	}
}

// groupSizes lists batch sizes on every side of a unit's group size: one
// image, a group less one, a group, a group and one (a short last group),
// and the quick profiles' batches.
func groupSizes(u *ConvBN) []int {
	g := u.Conv.low.Group()
	var ns []int
	for _, n := range []int{1, g - 1, g, g + 1, 2*g + 1, 20, 27} {
		if n >= 1 && !slices.Contains(ns, n) {
			ns = append(ns, n)
		}
	}
	return ns
}

// TestConvBNBitIdenticalToLayered is the unit's float-bits contract:
// ConvBN computes exactly what Conv2D → BatchNorm → ReLU computed, on the
// unit's three geometry kinds (same-size 3×3 pad 1, a stride-2 gather, the
// 1×1 stride-2 projection), with the rectifier and without, for output
// channel counts around the passes' four-channel blocks, and for batches
// of one group, several, and several with a short last one.
func TestConvBNBitIdenticalToLayered(t *testing.T) {
	sq := func(inC, hw, k, stride, pad int) tensor.ConvGeom {
		return tensor.ConvGeom{InC: inC, InH: hw, InW: hw, KH: k, KW: k, Stride: stride, Pad: pad}
	}
	geoms := []struct {
		name string
		g    tensor.ConvGeom
	}{
		{"same3x3", sq(3, 6, 3, 1, 1)},
		{"gather3x3s2", sq(4, 7, 3, 2, 1)},
		{"proj1x1s2", sq(5, 8, 1, 2, 0)},
	}
	for gi, geo := range geoms {
		for _, outC := range []int{1, 5, 6, 8, 12} {
			for _, relu := range []bool{false, true} {
				seed := uint64(1000*gi + 10*outC)
				if relu {
					seed++
				}
				t.Run(fmt.Sprintf("%s_outc%d_relu%v", geo.name, outC, relu), func(t *testing.T) {
					r := rng.New(seed)
					u := NewConvBN(NewConv2D("c", geo.g, outC, r), NewBatchNorm("bn", outC, geo.g.ColRows()), relu)
					checkUnit(t, u, r, groupSizes(u))
				})
			}
		}
	}
}

// TestResidualAddReLUBitIdentical: the residual join's one add+ReLU pass
// and its mask read from the output equal Add then ReLU, and ReLUBackward
// on the sum, bit for bit — forward and backward, the input gradient and
// every branch's parameter gradients — on an identity and a projection
// block.
func TestResidualAddReLUBitIdentical(t *testing.T) {
	geom := tensor.ConvGeom{InC: 4, InH: 5, InW: 5, KH: 3, KW: 3, Stride: 1, Pad: 1}
	proj := tensor.ConvGeom{InC: 4, InH: 5, InW: 5, KH: 1, KW: 1, Stride: 1, Pad: 0}
	build := func(g *rng.RNG, short bool) *Residual {
		path := NewSequential(
			NewConvBN(NewConv2D("c1", geom, 4, g), NewBatchNorm("bn1", 4, 25), true),
			NewConvBN(NewConv2D("c2", geom, 4, g), NewBatchNorm("bn2", 4, 25), false),
		)
		if !short {
			return NewResidual(path, nil)
		}
		return NewResidual(path, NewSequential(NewConvBN(NewConv2D("p", proj, 4, g), NewBatchNorm("pbn", 4, 25), false)))
	}
	for _, short := range []bool{false, true} {
		got, want := build(rng.New(3), short), build(rng.New(3), short)
		x, grad := tensor.New(9, 100), tensor.New(9, 100)
		r := rng.New(4)
		r.FillNormal(x.Data, 1)
		r.FillNormal(grad.Data, 1)
		out := got.Forward(x, true)
		dx := got.Backward(grad)

		// The layered join: sum, ReLU, ReLU's mask on the sum.
		main := want.Path.Forward(x, true)
		skip := x
		if want.Shortcut != nil {
			skip = want.Shortcut.Forward(x, true)
		}
		sum, wantOut, dSum := tensor.New(9, 100), tensor.New(9, 100), tensor.New(9, 100)
		tensor.Add(sum, main, skip)
		tensor.ReLU(wantOut, sum)
		tensor.ReLUBackward(dSum, grad, sum)
		wantDx := want.Path.Backward(dSum).Clone()
		dSkip := dSum
		if want.Shortcut != nil {
			dSkip = want.Shortcut.Backward(dSum)
		}
		tensor.Add(wantDx, wantDx, dSkip)

		what := fmt.Sprintf("projection %v ", short)
		bitsEqual(t, what+"out", out.Data, wantOut.Data)
		bitsEqual(t, what+"dx", dx.Data, wantDx.Data)
		wp := want.Params()
		for i, p := range got.Params() {
			bitsEqual(t, what+p.Name+" grad", p.Grad.Data, wp[i].Grad.Data)
		}
	}
}

// TestBatchNormStandaloneIsDense: a conv-shaped batch norm runs only
// inside its unit.
func TestBatchNormStandaloneIsDense(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("a Spatial > 1 BatchNorm ran on its own")
		}
	}()
	NewBatchNorm("bn", 2, 4).Forward(tensor.New(3, 8), true)
}

// TestConvBNRejectsMismatchedBatchNorm: the unit's batch norm must cover
// the convolution's output.
func TestConvBNRejectsMismatchedBatchNorm(t *testing.T) {
	geom := tensor.ConvGeom{InC: 2, InH: 4, InW: 4, KH: 3, KW: 3, Stride: 2, Pad: 1}
	for name, bn := range map[string]*BatchNorm{
		"channels": NewBatchNorm("bn", 4, 4),
		"spatial":  NewBatchNorm("bn", 3, 16),
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: mismatched batch norm accepted", name)
				}
			}()
			NewConvBN(NewConv2D("c", geom, 3, rng.New(1)), bn, true)
		}()
	}
}
