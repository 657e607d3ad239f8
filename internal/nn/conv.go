package nn

import (
	"lcasgd/internal/rng"
	"lcasgd/internal/tensor"
)

// Conv2D is a 2-D convolution lowered to matrix products over a
// channel-major panel of a group of images; tensor.ConvLowering decides,
// from the geometry, how each product reads the panel. Input rows are
// channel-major (C, H, W) flattened images. A Conv2D is not a layer on its
// own: it runs inside a ConvBN, which owns its input, output and
// gradients, and gives the products the layouts they read and write.
//
// The float bits of every result are a contract (backend equivalence,
// resume equivalence, the committed fingerprint). Four accumulation orders
// carry it, each kept by the code that notes it below:
//
//  1. an output element sums its taps (c, ky, kx) ascending from +0 — a
//     tap in the padding contributes W·(+0), whether a panel entry or a
//     masked lane holds the +0 — and the sum joins the bias once;
//  2. W.Grad[r, oc] receives, image by image in batch order, that image's
//     sum over output pixels p ascending, formed from +0 — a tap in the
//     padding contributes (+0)·dY, the +0 read from a staged border;
//  3. B.Grad[oc] likewise: one per-image sum over p ascending, in batch
//     order;
//  4. an input-gradient pixel accumulates its patch contributions in
//     ascending (oy, ox) from +0, each contribution a sum over output
//     channels ascending from +0.
type Conv2D struct {
	Geom tensor.ConvGeom
	OutC int
	W    *Param // [InC*KH*KW, OutC]
	B    *Param // [OutC]

	low *tensor.ConvLowering

	// Group scratch, allocated at construction for a full group and sliced
	// to the group in hand: y, the [OutC, cols] product of an inference
	// pass and then the backward pass's output gradient dY; dYT, that
	// gradient pixel-major, [cols, OutC], for WeightGrad.
	y, dYT []float64
}

// NewConv2D constructs a convolution with He initialization. It panics on
// invalid geometry — layer construction is programmer error territory, not
// runtime input.
func NewConv2D(name string, g tensor.ConvGeom, outC int, r *rng.RNG) *Conv2D {
	if err := g.Validate(); err != nil {
		panic(err)
	}
	c := &Conv2D{
		Geom: g,
		OutC: outC,
		W:    NewParam(name+".W", g.ColCols(), outC),
		B:    NewParam(name+".b", outC),
		low:  tensor.NewConvLowering(g, outC),
	}
	c.W.InitHe(r, g.ColCols())
	cols := c.low.Group() * g.ColRows()
	c.y = make([]float64, outC*cols)
	c.dYT = make([]float64, outC*cols)
	return c
}

// inFeatures reports InC*InH*InW, an input row's width.
func (c *Conv2D) inFeatures() int { return c.Geom.InC * c.Geom.InH * c.Geom.InW }

// forward writes the convolution of x's g images from image i0, with the
// bias, to y [OutC, g*HW] at row stride ld: each row is seeded with its
// channel's bias and the product's chain joins it once, so an element is
// bias + chain — order 1, the sum of IEEE addition's two commuting
// operands.
func (c *Conv2D) forward(y []float64, ld int, x []float64, i0, g int) {
	cols, inFeat := g*c.Geom.ColRows(), c.inFeatures()
	tensor.FillRows(y, ld, cols, c.B.Value.Data)
	c.low.Forward(y, ld, c.W.Value.Data, x[i0*inFeat:(i0+g)*inFeat], g)
}

// backward accumulates the weight gradient of x's g images from image i0
// and, if dx is not nil, writes their input gradient to dx's rows i0
// onwards, from the group's output gradient in dY [OutC, g*HW] and dYT
// [g*HW, OutC].
func (c *Conv2D) backward(x, dx []float64, dY, dYT []float64, i0, g int) {
	inFeat := c.inFeatures()
	c.low.WeightGrad(c.W.Grad.Data, x[i0*inFeat:(i0+g)*inFeat], dYT, g) // order 2
	if dx != nil {
		c.low.InputGrad(dx[i0*inFeat:(i0+g)*inFeat], c.W.Value.Data, dY, g) // order 4
	}
}
