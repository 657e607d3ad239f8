package nn

import (
	"fmt"

	"lcasgd/internal/tensor"
)

// ConvBN is a convolution, the batch norm after it and, if ReLU, the
// rectifier after that, run as one layer: the ResNet's conv-BN(-ReLU)
// stack. It computes what Conv2D → BatchNorm → ReLULayer would, bit for
// bit, with each training activation written once per direction:
//
//   - Forward (training): every group's product lands, seeded with the
//     bias, in pre, a channel-major [OutC, n·HW] buffer for the whole
//     batch (a [n, OutC·HW] header), whose contiguous channel rows BN's two
//     reductions then read; one normalize pass, the rectifier folded in,
//     writes the image-major output.
//   - Backward: BN's two gradient passes recompute x̂ and the rectifier's
//     mask from pre (the same operations on the same operands, so the same
//     bits as stored ones); the input-gradient pass writes, group by
//     group, the convolution's channel-major dY, its pixel-major dYT and
//     the bias gradient's per-image sums, which the lowering's WeightGrad
//     and InputGrad then read.
//   - Inference: per group, the bias-seeded product in the convolution's
//     scratch and one pass of BN's inference with the rectifier.
//
// Params are W, b, γ, β in that order, and BatchNorms lists BN where the
// layered stack listed it, so the flat State is laid out as before.
type ConvBN struct {
	Conv *Conv2D
	BN   *BatchNorm
	ReLU bool

	x       *tensor.Tensor // cached input
	pre     *tensor.Tensor // training pre-activation, channel-major
	out, dx *tensor.Tensor // reused buffers (see reuse2)

	grad tensor.BNGrad // the backward pass's channel constants
}

// NewConvBN joins conv and the batch norm over its output, with the
// rectifier after them if relu. It panics when bn does not match conv's
// output.
func NewConvBN(conv *Conv2D, bn *BatchNorm, relu bool) *ConvBN {
	if bn.C != conv.OutC || bn.Spatial != conv.Geom.ColRows() {
		panic(fmt.Sprintf("nn: ConvBN %s: batch norm of %d×%d over a convolution of %d×%d",
			conv.W.Name, bn.C, bn.Spatial, conv.OutC, conv.Geom.ColRows()))
	}
	return &ConvBN{Conv: conv, BN: bn, ReLU: relu}
}

// Forward runs the unit over the batch x [N, InC·InH·InW].
func (u *ConvBN) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	c, bn := u.Conv, u.BN
	if x.Rank() != 2 || x.Shape[1] != c.inFeatures() {
		panic(fmt.Sprintf("nn: ConvBN %s expects [N,%d], got %v", c.W.Name, c.inFeatures(), x.Shape))
	}
	n, hw, group := x.Shape[0], c.Geom.ColRows(), c.low.Group()
	outFeat := c.OutC * hw
	out := reuse2(&u.out, n, outFeat)
	gamma, beta := bn.Gamma.Value.Data, bn.Beta.Value.Data
	if !train {
		bn.inferScale()
		for i0 := 0; i0 < n; i0 += group {
			g := min(group, n-i0)
			cols := g * hw
			y := c.y[:c.OutC*cols]
			c.forward(y, cols, x.Data, i0, g)
			tensor.BNInferRows(out.Data[i0*outFeat:(i0+g)*outFeat], y, cols, g, c.OutC, hw, u.ReLU,
				gamma, bn.RunningMean, bn.scale, beta)
		}
		return out
	}
	u.x = x
	pre := reuse2(&u.pre, n, outFeat).Data
	ld := n * hw
	for i0 := 0; i0 < n; i0 += group {
		c.forward(pre[i0*hw:], ld, x.Data, i0, min(group, n-i0))
	}
	bn.trainStats(pre, 1, ld)
	tensor.BNTrainRows(out.Data, pre, ld, n, c.OutC, hw, u.ReLU, bn.batchMean, bn.invStd, gamma, beta)
	return out
}

// Backward accumulates every parameter gradient and returns the input
// gradient.
func (u *ConvBN) Backward(grad *tensor.Tensor) *tensor.Tensor {
	dx := reuse2(&u.dx, u.x.Shape[0], u.Conv.inFeatures())
	u.backward(grad, dx.Data)
	return dx
}

// backwardParams is Backward without the input gradient (see
// Sequential.BackwardParams).
func (u *ConvBN) backwardParams(grad *tensor.Tensor) { u.backward(grad, nil) }

// backward accumulates the parameter gradients and, if dx is not nil,
// writes the input gradient into it. β and γ take their sums first, then
// per group b takes its per-image sums (order 3), W its per-image addends
// (order 2), and dx its rows — each gradient in the order the layered
// stack gave it.
func (u *ConvBN) backward(grad *tensor.Tensor, dx []float64) {
	c, bn := u.Conv, u.BN
	n, hw, group := u.x.Shape[0], c.Geom.ColRows(), c.low.Group()
	outFeat, ld := c.OutC*hw, n*hw
	pre := u.pre.Data
	k := &u.grad // its fields re-read: packing the network moves BN's slices
	k.Mean, k.Inv, k.Gamma, k.Beta = bn.batchMean, bn.invStd, bn.Gamma.Value.Data, bn.Beta.Value.Data
	k.K, k.SumDy, k.SumDyXhat, k.M = bn.scale, bn.sumDy, bn.sumDyXhat, float64(ld)
	tensor.BNGradSums(k, pre, ld, grad.Data, n, c.OutC, hw, u.ReLU)
	bn.gradStep(k.M)
	for i0 := 0; i0 < n; i0 += group {
		g := min(group, n-i0)
		cols := g * hw
		dY, dYT := c.y[:c.OutC*cols], c.dYT[:cols*c.OutC]
		tensor.BNGradRows(dY, dYT, c.B.Grad.Data, pre[i0*hw:], ld, grad.Data[i0*outFeat:(i0+g)*outFeat],
			g, c.OutC, hw, u.ReLU, k)
		c.backward(u.x.Data, dx, dY, dYT, i0, g)
	}
}

// Params returns W, b, γ and β.
func (u *ConvBN) Params() []*Param { return []*Param{u.Conv.W, u.Conv.B, u.BN.Gamma, u.BN.Beta} }

// OutFeatures reports OutC·OutH·OutW.
func (u *ConvBN) OutFeatures() int { return u.Conv.OutC * u.Conv.Geom.ColRows() }
