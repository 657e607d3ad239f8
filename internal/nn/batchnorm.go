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
// transform: y = γ·x̂ + β (Ioffe & Szegedy 2015). As a layer it is the
// dense one (Spatial 1, a channel a column); a convolution's batch norm
// (Spatial > 1) runs inside its ConvBN, on the unit's channel-major
// pre-activation, through the same statistics code below.
//
// The layer is the integration point for the paper's Async-BN (Section 4,
// Formulas 6–7): the parameter server owns the global running mean/variance.
// In a packed network (Sequential.State) the layer's running and batch
// statistics are windows of the State's flat vectors, so a worker's push
// reads its freshly computed batch statistics there and its pull writes the
// globally accumulated ones there. Inference always normalizes with the
// running statistics, so the quality of the server's accumulation policy is
// directly visible in the measured test error — exactly the effect Table 1
// reports.
//
// Float bits: a channel's four reductions (Σx, Σ(x−μ)², Σdy, Σdy·x̂) each
// run over the images in batch order and an image's positions ascending,
// from +0. That order is the contract; channels never meet, so the order
// across channels is not, and the training step runs several channels'
// chains side by side (chanSums and its siblings below, tensor.BNGradSums).
type BatchNorm struct {
	C       int // channels
	Spatial int // H*W (1 for dense layers)

	Gamma, Beta *Param

	// Running statistics used at inference; updated during local training
	// with an EMA of momentum Momentum, or overwritten by the server.
	RunningMean, RunningVar []float64
	Momentum                float64

	// Last batch statistics, the State's BatchMean/BatchVar once packed.
	batchMean, batchVar []float64
	invStd              []float64

	// The dense layer's backward caches: xhat is reused across iterations
	// (reuse2); out/dx are its reused output and input-gradient buffers.
	x       *tensor.Tensor
	xhat    *tensor.Tensor
	out, dx *tensor.Tensor

	sumDy, sumDyXhat []float64 // the backward pass's per-channel reductions
	// scale is a per-channel factor of the pass in hand: the inference
	// 1/σ, or the backward pass's γ·inv/m.
	scale []float64
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
		sumDy:       make([]float64, c),
		sumDyXhat:   make([]float64, c),
		scale:       make([]float64, c),
	}
	bn.Gamma.Value.Fill(1)
	for i := range bn.RunningVar {
		bn.RunningVar[i] = 1
	}
	return bn
}

// trainStats forms the batch statistics of x, n rows of C rows of S
// elements — a dense batch [n, C] at S = 1, a unit's channel-major
// pre-activation at n = 1 — folds them into the running EMA and sets
// invStd.
func (bn *BatchNorm) trainStats(x []float64, n, S int) {
	m := float64(n * S)
	mean, variance := bn.batchMean, bn.batchVar
	chanSums(mean, x, n, bn.C, S)
	for c := range mean {
		mean[c] /= m
	}
	chanSqDevs(variance, x, mean, n, bn.C, S)
	for c := range variance {
		variance[c] /= m
		bn.RunningMean[c] = (1-bn.Momentum)*bn.RunningMean[c] + bn.Momentum*mean[c]
		bn.RunningVar[c] = (1-bn.Momentum)*bn.RunningVar[c] + bn.Momentum*variance[c]
		bn.invStd[c] = 1 / math.Sqrt(variance[c]+BNEpsilon)
	}
}

// inferScale sets scale to the inference 1/σ of the running variance.
func (bn *BatchNorm) inferScale() {
	for c, v := range bn.RunningVar {
		bn.scale[c] = 1 / math.Sqrt(v+BNEpsilon)
	}
}

// gradStep adds the backward reductions to β's and γ's gradients and sets
// scale to the input gradient's γ·inv/m.
func (bn *BatchNorm) gradStep(m float64) {
	for c := 0; c < bn.C; c++ {
		bn.Beta.Grad.Data[c] += bn.sumDy[c]
		bn.Gamma.Grad.Data[c] += bn.sumDyXhat[c]
		// dx = (γ·inv/m) · (m·dy − Σdy − x̂·Σ(dy·x̂))
		bn.scale[c] = bn.Gamma.Value.Data[c] * bn.invStd[c] / m
	}
}

// Forward normalizes x ([N, C]). In training mode it uses batch statistics
// and updates the running EMA; in inference mode it uses the running
// statistics.
func (bn *BatchNorm) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if bn.Spatial != 1 {
		panic(fmt.Sprintf("nn: BatchNorm %s of Spatial %d runs inside a ConvBN", bn.Gamma.Name, bn.Spatial))
	}
	feat := bn.C
	if x.Rank() != 2 || x.Shape[1] != feat {
		panic(fmt.Sprintf("nn: BatchNorm %s expects [N,%d], got %v", bn.Gamma.Name, feat, x.Shape))
	}
	n := x.Shape[0]
	out := reuse2(&bn.out, n, feat)
	if train {
		bn.x = x
		bn.xhat = reuse2(&bn.xhat, n, feat)
		bn.trainStats(x.Data, n, 1)
		for c := 0; c < bn.C; c++ { // a channel is a column: no rows to walk
			mu, inv := bn.batchMean[c], bn.invStd[c]
			g, b := bn.Gamma.Value.Data[c], bn.Beta.Value.Data[c]
			for j := c; j < len(out.Data); j += feat {
				xh := (x.Data[j] - mu) * inv
				bn.xhat.Data[j] = xh
				out.Data[j] = g*xh + b
			}
		}
		return out
	}
	bn.inferScale()
	for c := 0; c < bn.C; c++ {
		inv := bn.scale[c]
		g, b := bn.Gamma.Value.Data[c], bn.Beta.Value.Data[c]
		mean := bn.RunningMean[c]
		for j := c; j < len(out.Data); j += feat {
			out.Data[j] = g*(x.Data[j]-mean)*inv + b
		}
	}
	return out
}

// Backward implements the standard batch-norm gradient.
func (bn *BatchNorm) Backward(grad *tensor.Tensor) *tensor.Tensor {
	n, feat := bn.x.Shape[0], bn.C
	dx := reuse2(&bn.dx, n, feat) // every element is assigned below
	m := float64(n)
	chanGradSums(bn.sumDy, bn.sumDyXhat, grad.Data, bn.xhat.Data, n, bn.C)
	bn.gradStep(m)
	for c := 0; c < bn.C; c++ {
		k, sumDy, sumDyXhat := bn.scale[c], bn.sumDy[c], bn.sumDyXhat[c]
		for j := c; j < len(dx.Data); j += feat {
			dx.Data[j] = k * (m*grad.Data[j] - sumDy - bn.xhat.Data[j]*sumDyXhat)
		}
	}
	return dx
}

// Params returns γ and β.
func (bn *BatchNorm) Params() []*Param { return []*Param{bn.Gamma, bn.Beta} }

// OutFeatures reports C*Spatial.
func (bn *BatchNorm) OutFeatures() int { return bn.C * bn.Spatial }

// chanSums and chanSqDevs are the training step's forward reductions.
// Each fills dst[c] with channel c's sum over x [n, C*S] (here Σx), images
// in batch order, positions ascending, from +0 — the chain of one addition
// per element that the float bits are pinned to, and that costs a
// floating-point add latency per element when it runs alone. So four
// channels' chains run side by side over their rows of an image (a unit's
// pre-activation is one image of n·HW-long rows): four independent
// accumulators in registers, one pass, no index arithmetic in the loop.
// The last group of a channel count that is not a multiple of four repeats
// channel C−1 in its spare lanes, which computes and stores the same sum
// again. At S == 1 (a dense batch) a row is one element and there is
// nothing to walk: the chains interleave the other way, every channel's
// accumulator advancing once per image. The sums are the same either way;
// the branch is kept for speed: without it BenchmarkWorkerIteration/mlp
// (ps) was slower in 8 of 10 alternated pairs, by 8 % in the median
// (445 → 469 µs on a 2-vCPU Xeon, go1.24.0): at S == 1 the general
// loop's inner walk is one element long, once per image and group.
func chanSums(dst, x []float64, n, C, S int) {
	feat := C * S
	if S == 1 {
		clear(dst)
		for i := 0; i < n; i++ {
			for c, v := range x[i*feat:][:feat] {
				dst[c] += v
			}
		}
		return
	}
	for c0 := 0; c0 < C; c0 += 4 {
		c1, c2, c3 := min(c0+1, C-1), min(c0+2, C-1), min(c0+3, C-1)
		var a0, a1, a2, a3 float64
		for i := 0; i < n; i++ {
			xi := x[i*feat:][:feat]
			r0, r1, r2, r3 := xi[c0*S:][:S], xi[c1*S:][:S], xi[c2*S:][:S], xi[c3*S:][:S]
			for s, v := range r0 {
				a0 += v
				a1 += r1[s]
				a2 += r2[s]
				a3 += r3[s]
			}
		}
		dst[c0], dst[c1], dst[c2], dst[c3] = a0, a1, a2, a3
	}
}

// chanSqDevs: dst[c] = Σ (x − mean[c])².
func chanSqDevs(dst, x, mean []float64, n, C, S int) {
	feat := C * S
	if S == 1 {
		clear(dst)
		for i := 0; i < n; i++ {
			for c, v := range x[i*feat:][:feat] {
				d := v - mean[c]
				dst[c] += d * d
			}
		}
		return
	}
	for c0 := 0; c0 < C; c0 += 4 {
		c1, c2, c3 := min(c0+1, C-1), min(c0+2, C-1), min(c0+3, C-1)
		m0, m1, m2, m3 := mean[c0], mean[c1], mean[c2], mean[c3]
		var a0, a1, a2, a3 float64
		for i := 0; i < n; i++ {
			xi := x[i*feat:][:feat]
			r0, r1, r2, r3 := xi[c0*S:][:S], xi[c1*S:][:S], xi[c2*S:][:S], xi[c3*S:][:S]
			for s, v := range r0 {
				d0, d1, d2, d3 := v-m0, r1[s]-m1, r2[s]-m2, r3[s]-m3
				a0 += d0 * d0
				a1 += d1 * d1
				a2 += d2 * d2
				a3 += d3 * d3
			}
		}
		dst[c0], dst[c1], dst[c2], dst[c3] = a0, a1, a2, a3
	}
}

// chanGradSums: sumDy[c] = Σ dy, sumDyXhat[c] = Σ dy·x̂ over a dense
// batch [n, C], every channel's two accumulators advancing once per row.
func chanGradSums(sumDy, sumDyXhat, dy, xhat []float64, n, C int) {
	clear(sumDy)
	clear(sumDyXhat)
	for i := 0; i < n; i++ {
		xh := xhat[i*C:][:C]
		for c, v := range dy[i*C:][:C] {
			sumDy[c] += v
			sumDyXhat[c] += v * xh[c]
		}
	}
}
