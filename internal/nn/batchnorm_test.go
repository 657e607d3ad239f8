package nn

import (
	"fmt"
	"math"
	"testing"

	"lcasgd/internal/rng"
	"lcasgd/internal/tensor"
)

// refBatchNorm is the float-bits definition of BatchNorm's training step,
// one channel at a time with direct indexing: every reduction of a channel
// (Σx, Σ(x−μ)², Σdy, Σdy·x̂) runs over the images in batch order and each
// image's positions ascending, from +0. Channels never meet, so the order
// they are visited in is not part of the contract.
type refBatchNorm struct {
	c, spatial, n       int
	momentum            float64
	gamma, beta         []float64
	gammaGrad, betaGrad []float64
	runMean, runVar     []float64
	mean, variance, inv []float64
	xhat, out, dx       []float64
}

func (r *refBatchNorm) forward(x []float64, n int) {
	feat := r.c * r.spatial
	r.n = n
	r.xhat, r.out = make([]float64, n*feat), make([]float64, n*feat)
	m := float64(n * r.spatial)
	for c := 0; c < r.c; c++ {
		sum := 0.0
		for i := 0; i < n; i++ {
			for s := 0; s < r.spatial; s++ {
				sum += x[i*feat+c*r.spatial+s]
			}
		}
		mean := sum / m
		vsum := 0.0
		for i := 0; i < n; i++ {
			for s := 0; s < r.spatial; s++ {
				d := x[i*feat+c*r.spatial+s] - mean
				vsum += d * d
			}
		}
		variance := vsum / m
		r.mean[c], r.variance[c] = mean, variance
		r.runMean[c] = (1-r.momentum)*r.runMean[c] + r.momentum*mean
		r.runVar[c] = (1-r.momentum)*r.runVar[c] + r.momentum*variance
		r.inv[c] = 1 / math.Sqrt(variance+BNEpsilon)
		for i := 0; i < n; i++ {
			for s := 0; s < r.spatial; s++ {
				j := i*feat + c*r.spatial + s
				xh := (x[j] - mean) * r.inv[c]
				r.xhat[j] = xh
				r.out[j] = r.gamma[c]*xh + r.beta[c]
			}
		}
	}
}

func (r *refBatchNorm) backward(grad []float64) {
	feat, n := r.c*r.spatial, r.n
	r.dx = make([]float64, n*feat)
	m := float64(n * r.spatial)
	for c := 0; c < r.c; c++ {
		var sumDy, sumDyXhat float64
		for i := 0; i < n; i++ {
			for s := 0; s < r.spatial; s++ {
				j := i*feat + c*r.spatial + s
				sumDy += grad[j]
				sumDyXhat += grad[j] * r.xhat[j]
			}
		}
		r.betaGrad[c] += sumDy
		r.gammaGrad[c] += sumDyXhat
		k := r.gamma[c] * r.inv[c] / m
		for i := 0; i < n; i++ {
			for s := 0; s < r.spatial; s++ {
				j := i*feat + c*r.spatial + s
				r.dx[j] = k * (m*grad[j] - sumDy - r.xhat[j]*sumDyXhat)
			}
		}
	}
}

// infer is the inference pass over the running statistics.
func (r *refBatchNorm) infer(x []float64, n int) []float64 {
	feat := r.c * r.spatial
	out := make([]float64, n*feat)
	for c := 0; c < r.c; c++ {
		inv := 1 / math.Sqrt(r.runVar[c]+BNEpsilon)
		for i := 0; i < n; i++ {
			for s := 0; s < r.spatial; s++ {
				j := i*feat + c*r.spatial + s
				out[j] = r.gamma[c]*(x[j]-r.runMean[c])*inv + r.beta[c]
			}
		}
	}
	return out
}

// TestBatchNormBitIdenticalToScalarReference pins the layer's bits:
// outputs, input gradient, γ/β gradients (accumulated into non-zero Grad),
// batch and running statistics equal the one-channel-at-a-time reference
// over two consecutive training steps, and the inference output after
// them, for channel counts on every side of any interleave width and the
// dense (Spatial 1) and conv shapes. A conv-shaped batch norm runs in its
// unit, here behind a 1×1 convolution, against the reference composed
// with the direct convolution's (checkUnit).
func TestBatchNormBitIdenticalToScalarReference(t *testing.T) {
	for _, c := range []int{1, 2, 3, 4, 5, 6, 8, 12, 24} {
		for _, side := range []int{1, 2, 3, 8, 12} {
			spatial := side * side
			for _, n := range []int{1, 4, 20} {
				g := rng.New(uint64(1000*c + 10*spatial + n))
				if spatial > 1 {
					geom := tensor.ConvGeom{InC: c, InH: side, InW: side, KH: 1, KW: 1, Stride: 1, Pad: 0}
					u := NewConvBN(NewConv2D("c", geom, c, g), NewBatchNorm("bn", c, spatial), false)
					checkUnit(t, u, g, []int{n, n})
					continue
				}
				feat := c * spatial
				bn := NewBatchNorm("bn", c, spatial)
				g.FillNormal(bn.Gamma.Value.Data, 1)
				g.FillNormal(bn.Beta.Value.Data, 1)
				g.FillNormal(bn.Gamma.Grad.Data, 1)
				g.FillNormal(bn.Beta.Grad.Data, 1)
				g.FillNormal(bn.RunningMean, 1)
				for i := range bn.RunningVar {
					bn.RunningVar[i] = 0.5 + g.Float64()
				}
				clone := func(s []float64) []float64 { return append([]float64(nil), s...) }
				ref := &refBatchNorm{
					c: c, spatial: spatial, momentum: bn.Momentum,
					gamma: clone(bn.Gamma.Value.Data), beta: clone(bn.Beta.Value.Data),
					gammaGrad: clone(bn.Gamma.Grad.Data), betaGrad: clone(bn.Beta.Grad.Data),
					runMean: clone(bn.RunningMean), runVar: clone(bn.RunningVar),
					mean: make([]float64, c), variance: make([]float64, c), inv: make([]float64, c),
				}
				for step := 0; step < 2; step++ {
					what := fmt.Sprintf("C=%d S=%d n=%d step %d: ", c, spatial, n, step)
					x, grad := tensor.New(n, feat), tensor.New(n, feat)
					g.FillNormal(x.Data, 2)
					g.FillNormal(grad.Data, 0.5)
					for i := range x.Data { // post-ReLU-like: exact zeros among the inputs
						if g.Intn(3) == 0 {
							x.Data[i] = 0
						}
					}
					out := bn.Forward(x, true)
					ref.forward(x.Data, n)
					bitsEqual(t, what+"out", out.Data, ref.out)
					bitsEqual(t, what+"batch mean", bn.batchMean, ref.mean)
					bitsEqual(t, what+"batch var", bn.batchVar, ref.variance)
					bitsEqual(t, what+"running mean", bn.RunningMean, ref.runMean)
					bitsEqual(t, what+"running var", bn.RunningVar, ref.runVar)

					dx := bn.Backward(grad)
					ref.backward(grad.Data)
					bitsEqual(t, what+"dx", dx.Data, ref.dx)
					bitsEqual(t, what+"gamma grad", bn.Gamma.Grad.Data, ref.gammaGrad)
					bitsEqual(t, what+"beta grad", bn.Beta.Grad.Data, ref.betaGrad)
					if step == 1 {
						bitsEqual(t, what+"inference out", bn.Forward(x, false).Data, ref.infer(x.Data, n))
					}
				}
			}
		}
	}
}

// BenchmarkBatchNormTrain is one training step (Forward + Backward) of a
// BN layer at the MLP's dense shape (fleet_scale's network); a conv-shaped
// batch norm is timed inside its unit (BenchmarkConvForward and
// BenchmarkConvBackward).
func BenchmarkBatchNormTrain(b *testing.B) {
	for _, s := range []struct {
		name          string
		c, spatial, n int
	}{
		{"dense_C16_S1_n4", 16, 1, 4},
	} {
		b.Run(s.name, func(b *testing.B) {
			g := rng.New(3)
			bn := NewBatchNorm("bn", s.c, s.spatial)
			x, grad := tensor.New(s.n, s.c*s.spatial), tensor.New(s.n, s.c*s.spatial)
			g.FillNormal(x.Data, 1)
			g.FillNormal(grad.Data, 1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bn.Forward(x, true)
				bn.Backward(grad)
			}
		})
	}
}
