package nn

import (
	"fmt"

	"lcasgd/internal/tensor"
)

// MaxPool2D performs kxk max pooling with stride k on channel-major images.
type MaxPool2D struct {
	C, H, W int
	K       int
	argmax  []int // flat input index chosen per output element, for backward
	inShape []int
	out, dx *tensor.Tensor // reused buffers
}

// NewMaxPool2D builds a pooling layer. H and W must be divisible by k.
func NewMaxPool2D(c, h, w, k int) *MaxPool2D {
	if h%k != 0 || w%k != 0 {
		panic(fmt.Sprintf("nn: MaxPool2D %dx%d not divisible by %d", h, w, k))
	}
	return &MaxPool2D{C: c, H: h, W: w, K: k}
}

// Forward pools each kxk window to its max.
func (p *MaxPool2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	inFeat := p.C * p.H * p.W
	if x.Rank() != 2 || x.Shape[1] != inFeat {
		panic(fmt.Sprintf("nn: MaxPool2D expects [N,%d], got %v", inFeat, x.Shape))
	}
	n := x.Shape[0]
	oh, ow := p.H/p.K, p.W/p.K
	outFeat := p.C * oh * ow
	out := reuse2(&p.out, n, outFeat)
	if cap(p.argmax) < n*outFeat {
		p.argmax = make([]int, n*outFeat)
	}
	p.argmax = p.argmax[:n*outFeat] // same rule as reuseFor
	p.inShape = x.Shape
	for i := 0; i < n; i++ {
		for c := 0; c < p.C; c++ {
			chBase := i*inFeat + c*p.H*p.W
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					best := x.Data[chBase+(oy*p.K)*p.W+ox*p.K]
					bestIdx := chBase + (oy*p.K)*p.W + ox*p.K
					for ky := 0; ky < p.K; ky++ {
						for kx := 0; kx < p.K; kx++ {
							idx := chBase + (oy*p.K+ky)*p.W + (ox*p.K + kx)
							if v := x.Data[idx]; v > best {
								best, bestIdx = v, idx
							}
						}
					}
					oidx := i*outFeat + c*oh*ow + oy*ow + ox
					out.Data[oidx] = best
					p.argmax[oidx] = bestIdx
				}
			}
		}
	}
	return out
}

// Backward routes each output gradient to the input element that won the max.
func (p *MaxPool2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	dx := reuseFor(&p.dx, p.inShape)
	dx.Zero() // the scatter below accumulates
	for oidx, iidx := range p.argmax {
		dx.Data[iidx] += grad.Data[oidx]
	}
	return dx
}

// Params returns nil; pooling has no parameters.
func (p *MaxPool2D) Params() []*Param { return nil }

// OutFeatures reports C*(H/K)*(W/K).
func (p *MaxPool2D) OutFeatures() int { return p.C * (p.H / p.K) * (p.W / p.K) }

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
