package nn

import (
	"fmt"

	"lcasgd/internal/rng"
	"lcasgd/internal/tensor"
)

// Conv2D is a 2-D convolution lowered to matrix products over a
// channel-major panel of a group of images; tensor.ConvLowering decides,
// from the geometry, how each product reads the panel. Input rows are
// channel-major (C, H, W) flattened images; output rows are (OutC, OutH,
// OutW) flattened.
//
// The float bits of every result are a contract (backend equivalence,
// resume equivalence, the committed fingerprint). Four accumulation orders
// carry it, each kept by the code that notes it below:
//
//  1. an output element sums its taps (c, ky, kx) ascending from +0 — a
//     tap in the padding contributes W·(+0), whether a panel entry or a
//     masked lane holds the +0 — and the bias is added once, after the
//     sum;
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

	x   *tensor.Tensor // cached input
	low *tensor.ConvLowering

	// Group scratch, allocated at construction for a full group and sliced
	// to the group in hand: y, the [OutC, cols] product of the forward
	// pass, which the backward pass reuses for the gathered output
	// gradient dY; dYT, that gradient transposed to [cols, OutC] for
	// WeightGrad. out/dx are per-batch-shape (see reuse2).
	y, dYT  []float64
	out, dx *tensor.Tensor
}

// NewConv2D constructs a convolution layer with He initialization. It
// panics on invalid geometry — layer construction is programmer error
// territory, not runtime input.
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

// Forward convolves the batch, one group of images per matrix product.
func (c *Conv2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	inFeat := c.Geom.InC * c.Geom.InH * c.Geom.InW
	if x.Rank() != 2 || x.Shape[1] != inFeat {
		panic(fmt.Sprintf("nn: Conv2D %s expects [N,%d], got %v", c.W.Name, inFeat, x.Shape))
	}
	c.x = x
	n := x.Shape[0]
	hw := c.Geom.ColRows()
	outFeat := c.OutC * hw
	out := reuse2(&c.out, n, outFeat)
	bias := c.B.Value.Data
	for i0 := 0; i0 < n; i0 += c.low.Group() {
		g := min(c.low.Group(), n-i0)
		cols := g * hw
		y := c.y[:c.OutC*cols]
		// Order 1: the product sums each element's taps r ascending from
		// +0 into y [OutC, cols]; the bias joins in the copy-out below.
		c.low.Forward(y, c.W.Value.Data, x.Data[i0*inFeat:(i0+g)*inFeat], g)
		tensor.AddChannelBias(out.Data[i0*outFeat:(i0+g)*outFeat], y, g, c.OutC, hw, cols, bias)
	}
	return out
}

// Backward accumulates weight/bias gradients and returns the input gradient.
func (c *Conv2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	dx := reuse2(&c.dx, c.x.Shape[0], c.Geom.InC*c.Geom.InH*c.Geom.InW)
	c.backward(grad, dx)
	return dx
}

// backwardParams is Backward without the input gradient (see
// Sequential.BackwardParams).
func (c *Conv2D) backwardParams(grad *tensor.Tensor) { c.backward(grad, nil) }

// backward accumulates the weight/bias gradients and, if dx is not nil,
// writes the input gradient into it.
func (c *Conv2D) backward(grad, dx *tensor.Tensor) {
	n := c.x.Shape[0]
	inFeat := c.Geom.InC * c.Geom.InH * c.Geom.InW
	hw, outC := c.Geom.ColRows(), c.OutC
	outFeat := outC * hw
	bGrad := c.B.Grad.Data
	for i0 := 0; i0 < n; i0 += c.low.Group() {
		g := min(c.low.Group(), n-i0)
		cols := g * hw
		dY, dYT := c.y[:outC*cols], c.dYT[:cols*outC]
		// One pass per image gathers its [OutC, HW] gradient into the
		// group's dY [OutC, cols] and dYT [cols, OutC] and — order 3 — sums
		// each channel over p ascending from +0 into one addend for B.Grad.
		// Channels go four at a time, so four independent chains share the
		// adder and dYT is written four channels per pixel, then one at a
		// time; each chain is still its channel's alone.
		for i := 0; i < g; i++ {
			src := grad.Data[(i0+i)*outFeat : (i0+i+1)*outFeat]
			t := dYT[i*hw*outC:][:hw*outC]
			oc := 0
			for ; oc+4 <= outC; oc += 4 {
				x0 := src[oc*hw : (oc+1)*hw]
				x1, x2, x3 := src[(oc+1)*hw:][:len(x0)], src[(oc+2)*hw:][:len(x0)], src[(oc+3)*hw:][:len(x0)]
				r0, r1 := dY[oc*cols+i*hw:][:len(x0)], dY[(oc+1)*cols+i*hw:][:len(x0)]
				r2, r3 := dY[(oc+2)*cols+i*hw:][:len(x0)], dY[(oc+3)*cols+i*hw:][:len(x0)]
				var s0, s1, s2, s3 float64
				for p, v0 := range x0 {
					v1, v2, v3 := x1[p], x2[p], x3[p]
					r0[p], r1[p], r2[p], r3[p] = v0, v1, v2, v3
					tp := t[p*outC+oc:][:4]
					tp[0], tp[1], tp[2], tp[3] = v0, v1, v2, v3
					s0 += v0
					s1 += v1
					s2 += v2
					s3 += v3
				}
				bGrad[oc] += s0
				bGrad[oc+1] += s1
				bGrad[oc+2] += s2
				bGrad[oc+3] += s3
			}
			for ; oc < outC; oc++ {
				row := dY[oc*cols+i*hw:][:hw]
				s := 0.0
				for p, v := range src[oc*hw : (oc+1)*hw] {
					row[p] = v
					t[p*outC+oc] = v
					s += v
				}
				bGrad[oc] += s
			}
		}
		c.low.WeightGrad(c.W.Grad.Data, c.x.Data[i0*inFeat:(i0+g)*inFeat], dYT, g) // order 2
		if dx != nil {
			c.low.InputGrad(dx.Data[i0*inFeat:(i0+g)*inFeat], c.W.Value.Data, dY, g) // order 4
		}
	}
}

// Params returns the filter weights and bias.
func (c *Conv2D) Params() []*Param { return []*Param{c.W, c.B} }

// OutFeatures reports OutC*OutH*OutW.
func (c *Conv2D) OutFeatures() int { return c.OutC * c.Geom.OutH() * c.Geom.OutW() }
