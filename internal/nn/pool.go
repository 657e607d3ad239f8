package nn

import (
	"fmt"

	"lcasgd/internal/tensor"
)

// GlobalAvgPool averages each channel's spatial plane to a single value,
// the standard ResNet head before the final classifier.
type GlobalAvgPool struct {
	C, Spatial int
	n          int
	out, dx    *tensor.Tensor // reused buffers
}

// NewGlobalAvgPool builds the layer for c channels of the given spatial size.
func NewGlobalAvgPool(c, spatial int) *GlobalAvgPool {
	return &GlobalAvgPool{C: c, Spatial: spatial}
}

// Forward averages over the spatial axis.
func (p *GlobalAvgPool) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	inFeat := p.C * p.Spatial
	if x.Rank() != 2 || x.Shape[1] != inFeat {
		panic(fmt.Sprintf("nn: GlobalAvgPool expects [N,%d], got %v", inFeat, x.Shape))
	}
	n := x.Shape[0]
	p.n = n
	out := reuse2(&p.out, n, p.C)
	inv := 1 / float64(p.Spatial)
	for i := 0; i < n; i++ {
		for c := 0; c < p.C; c++ {
			base := i*inFeat + c*p.Spatial
			s := 0.0
			for k := 0; k < p.Spatial; k++ {
				s += x.Data[base+k]
			}
			out.Data[i*p.C+c] = s * inv
		}
	}
	return out
}

// Backward spreads each channel gradient uniformly over its spatial plane.
func (p *GlobalAvgPool) Backward(grad *tensor.Tensor) *tensor.Tensor {
	inFeat := p.C * p.Spatial
	dx := reuse2(&p.dx, p.n, inFeat) // every element is assigned below
	inv := 1 / float64(p.Spatial)
	for i := 0; i < p.n; i++ {
		for c := 0; c < p.C; c++ {
			g := grad.Data[i*p.C+c] * inv
			base := i*inFeat + c*p.Spatial
			for k := 0; k < p.Spatial; k++ {
				dx.Data[base+k] = g
			}
		}
	}
	return dx
}

// Params returns nil; pooling has no parameters.
func (p *GlobalAvgPool) Params() []*Param { return nil }

// OutFeatures reports the channel count.
func (p *GlobalAvgPool) OutFeatures() int { return p.C }
