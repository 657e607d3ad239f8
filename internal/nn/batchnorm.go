package nn

import (
	"fmt"
	"math"

	"lcasgd/internal/tensor"
)

// BNEpsilon is the variance floor used by batch normalization.
const BNEpsilon = 1e-5

// BatchNorm normalizes activations per channel over the batch (and spatial
// positions, for convolutional inputs), then applies a learned affine
// transform: y = γ·x̂ + β (Ioffe & Szegedy 2015).
//
// The layer is the integration point for the paper's Async-BN (Section 4,
// Formulas 6–7): the parameter server owns the global running mean/variance,
// and the distributed strategies read the worker's freshly computed batch
// statistics (ReadBatchStats) and write back globally accumulated ones
// (SetRunning). Inference always normalizes with the running statistics, so
// the quality of the server's accumulation policy is directly visible in the
// measured test error — exactly the effect Table 1 reports.
type BatchNorm struct {
	C       int // channels
	Spatial int // H*W (1 for dense layers)

	Gamma, Beta *Param

	// Running statistics used at inference; updated during local training
	// with an EMA of momentum Momentum, or overwritten by the server.
	RunningMean, RunningVar []float64
	Momentum                float64

	// Last batch statistics, exposed to the distributed strategies.
	batchMean, batchVar []float64

	// Backward caches. xhat is reused across iterations (reuse2); out/dx
	// are the layer's reused output and input-gradient buffers.
	x       *tensor.Tensor
	xhat    *tensor.Tensor
	invStd  []float64
	out, dx *tensor.Tensor
}

// NewBatchNorm builds a BN layer for c channels with the given spatial size
// per channel. γ initializes to 1, β to 0, running variance to 1.
func NewBatchNorm(name string, c, spatial int) *BatchNorm {
	bn := &BatchNorm{
		C:           c,
		Spatial:     spatial,
		Gamma:       NewParam(name+".gamma", c),
		Beta:        NewParam(name+".beta", c),
		RunningMean: make([]float64, c),
		RunningVar:  make([]float64, c),
		Momentum:    0.1,
		batchMean:   make([]float64, c),
		batchVar:    make([]float64, c),
		invStd:      make([]float64, c),
	}
	bn.Gamma.Value.Fill(1)
	for i := range bn.RunningVar {
		bn.RunningVar[i] = 1
	}
	return bn
}

// Forward normalizes x ([N, C*Spatial]). In training mode it uses batch
// statistics and updates the running EMA; in inference mode it uses the
// running statistics.
func (bn *BatchNorm) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	feat := bn.C * bn.Spatial
	if x.Rank() != 2 || x.Shape[1] != feat {
		panic(fmt.Sprintf("nn: BatchNorm %s expects [N,%d], got %v", bn.Gamma.Name, feat, x.Shape))
	}
	n := x.Shape[0]
	out := reuse2(&bn.out, n, feat)
	if train {
		bn.x = x
		bn.xhat = reuse2(&bn.xhat, n, feat)
		m := float64(n * bn.Spatial)
		for c := 0; c < bn.C; c++ {
			sum := 0.0
			for i := 0; i < n; i++ {
				base := i*feat + c*bn.Spatial
				for s := 0; s < bn.Spatial; s++ {
					sum += x.Data[base+s]
				}
			}
			mean := sum / m
			vsum := 0.0
			for i := 0; i < n; i++ {
				base := i*feat + c*bn.Spatial
				for s := 0; s < bn.Spatial; s++ {
					d := x.Data[base+s] - mean
					vsum += d * d
				}
			}
			variance := vsum / m
			bn.batchMean[c] = mean
			bn.batchVar[c] = variance
			bn.RunningMean[c] = (1-bn.Momentum)*bn.RunningMean[c] + bn.Momentum*mean
			bn.RunningVar[c] = (1-bn.Momentum)*bn.RunningVar[c] + bn.Momentum*variance
			inv := 1 / math.Sqrt(variance+BNEpsilon)
			bn.invStd[c] = inv
			g, b := bn.Gamma.Value.Data[c], bn.Beta.Value.Data[c]
			for i := 0; i < n; i++ {
				base := i*feat + c*bn.Spatial
				for s := 0; s < bn.Spatial; s++ {
					xh := (x.Data[base+s] - mean) * inv
					bn.xhat.Data[base+s] = xh
					out.Data[base+s] = g*xh + b
				}
			}
		}
		return out
	}
	for c := 0; c < bn.C; c++ {
		inv := 1 / math.Sqrt(bn.RunningVar[c]+BNEpsilon)
		g, b := bn.Gamma.Value.Data[c], bn.Beta.Value.Data[c]
		mean := bn.RunningMean[c]
		for i := 0; i < n; i++ {
			base := i*feat + c*bn.Spatial
			for s := 0; s < bn.Spatial; s++ {
				out.Data[base+s] = g*(x.Data[base+s]-mean)*inv + b
			}
		}
	}
	return out
}

// Backward implements the standard batch-norm gradient.
func (bn *BatchNorm) Backward(grad *tensor.Tensor) *tensor.Tensor {
	n := bn.x.Shape[0]
	feat := bn.C * bn.Spatial
	dx := reuse2(&bn.dx, n, feat) // every element is assigned below
	m := float64(n * bn.Spatial)
	for c := 0; c < bn.C; c++ {
		g := bn.Gamma.Value.Data[c]
		inv := bn.invStd[c]
		var sumDy, sumDyXhat float64
		for i := 0; i < n; i++ {
			base := i*feat + c*bn.Spatial
			for s := 0; s < bn.Spatial; s++ {
				dy := grad.Data[base+s]
				sumDy += dy
				sumDyXhat += dy * bn.xhat.Data[base+s]
			}
		}
		bn.Beta.Grad.Data[c] += sumDy
		bn.Gamma.Grad.Data[c] += sumDyXhat
		// dx = (γ·inv/m) · (m·dy − Σdy − x̂·Σ(dy·x̂))
		k := g * inv / m
		for i := 0; i < n; i++ {
			base := i*feat + c*bn.Spatial
			for s := 0; s < bn.Spatial; s++ {
				dy := grad.Data[base+s]
				xh := bn.xhat.Data[base+s]
				dx.Data[base+s] = k * (m*dy - sumDy - xh*sumDyXhat)
			}
		}
	}
	return dx
}

// Params returns γ and β.
func (bn *BatchNorm) Params() []*Param { return []*Param{bn.Gamma, bn.Beta} }

// OutFeatures reports C*Spatial.
func (bn *BatchNorm) OutFeatures() int { return bn.C * bn.Spatial }

// ReadBatchStats copies the most recent training-batch statistics into the
// caller-provided slices (length C each), for the per-iteration statistics
// push.
func (bn *BatchNorm) ReadBatchStats(mean, variance []float64) {
	if len(mean) != bn.C || len(variance) != bn.C {
		panic(fmt.Sprintf("nn: ReadBatchStats expects %d channels, got %d/%d", bn.C, len(mean), len(variance)))
	}
	copy(mean, bn.batchMean)
	copy(variance, bn.batchVar)
}

// SetRunning overwrites the running statistics — the hook the parameter
// server uses to push its globally accumulated (Async-BN) or
// latest-worker (regular distributed BN) statistics into a worker replica.
func (bn *BatchNorm) SetRunning(mean, variance []float64) {
	if len(mean) != bn.C || len(variance) != bn.C {
		panic(fmt.Sprintf("nn: SetRunning expects %d channels, got %d/%d", bn.C, len(mean), len(variance)))
	}
	copy(bn.RunningMean, mean)
	copy(bn.RunningVar, variance)
}

// Running returns copies of the current running statistics.
func (bn *BatchNorm) Running() (mean, variance []float64) {
	return append([]float64(nil), bn.RunningMean...), append([]float64(nil), bn.RunningVar...)
}
