package ps

import (
	"lcasgd/internal/core"
	"lcasgd/internal/data"
	"lcasgd/internal/nn"
	"lcasgd/internal/rng"
	"lcasgd/internal/tensor"
)

// replica is one worker's private copy of the model plus its view of the
// shared dataset. All replicas are built from the same model seed so every
// algorithm starts from the identical random initialization, as the paper's
// experimental protocol requires.
//
// Memory model (see DESIGN.md): the replica owns its input batch x, the
// network's layers own their activation/gradient buffers, and the label/
// stats/gradient slices below are reused — so a steady-state iteration
// (pull + forward + backward + stats) performs zero heap allocations.
type replica struct {
	net     *nn.Sequential
	bns     []*nn.BatchNorm
	params  []*nn.Param
	nParams int
	iter    *data.BatchIter
	ce      nn.SoftmaxCrossEntropy
	grad    []float64 // reusable flat gradient buffer

	x        *tensor.Tensor    // input batch [batch, features], refilled every forward
	y        []int             // reusable label buffer
	statsBuf []core.LayerStats // reusable BN statistics view
}

// newReplica builds a worker replica. modelSeed fixes the initialization;
// dataRng drives this worker's private batch order.
func newReplica(build func(*rng.RNG) *nn.Sequential, modelSeed uint64, ds *data.Dataset, batch int, dataRng *rng.RNG) *replica {
	net := build(rng.New(modelSeed))
	params := net.Params()
	bns := net.BatchNorms()
	return &replica{
		net:      net,
		bns:      bns,
		params:   params,
		nParams:  nn.ParamCount(params),
		iter:     data.NewBatchIter(ds, batch, dataRng),
		grad:     make([]float64, nn.ParamCount(params)),
		x:        tensor.New(batch, ds.Features()),
		y:        make([]int, batch),
		statsBuf: core.CollectStatsInto(nil, bns),
	}
}

// pull installs the server's weights and global BN statistics, the worker
// side of Algorithm 1 lines 1–2.
func (r *replica) pull(w []float64, bnAcc *core.BNAccumulator) {
	nn.UnflattenValues(r.params, w)
	bnAcc.Apply(r.bns)
}

// forward takes the next mini-batch and runs the forward pass in training
// mode, returning the batch loss (Algorithm 1 line 4). BN layers capture
// their batch statistics as a side effect (lines 6–7).
func (r *replica) forward() float64 {
	r.iter.NextInto(r.x, r.y)
	out := r.net.Forward(r.x, true)
	return r.ce.Forward(out, r.y)
}

// backward runs backpropagation seeded with the given scale (Formula 5's
// compensation enters here, see core.CompensationScale) and returns the
// flattened gradient. The returned slice is reused across calls.
func (r *replica) backward(scale float64) []float64 {
	r.net.ZeroGrad()
	r.net.BackwardParams(r.ce.Backward(scale))
	nn.FlattenGrads(r.grad, r.params)
	return r.grad
}

// gradient is forward+backward with no compensation, the whole local step
// of the non-LC algorithms. It returns the loss and the flat gradient.
func (r *replica) gradient() (float64, []float64) {
	loss := r.forward()
	return loss, r.backward(1)
}

// stats returns the batch-normalization statistics of the last forward,
// refreshed in place into the replica's reused view.
func (r *replica) stats() []core.LayerStats {
	r.statsBuf = core.CollectStatsInto(r.statsBuf, r.bns)
	return r.statsBuf
}
