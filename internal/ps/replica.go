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
// Memory model (see DESIGN.md): the replica owns its input batch x and
// label buffer, the network's layers own their activation/gradient buffers,
// and the network's flat state st is what the server exchanges — the pull
// copies into it and the push reads it in place — so a steady-state
// iteration (pull + forward + backward + stats) performs zero heap
// allocations.
type replica struct {
	net  *nn.Sequential
	st   *nn.State
	iter *data.BatchIter
	ce   nn.SoftmaxCrossEntropy

	x *tensor.Tensor // input batch [batch, features], refilled every forward
	y []int          // reusable label buffer
}

// newReplica builds a worker replica. modelSeed fixes the initialization;
// dataRng drives this worker's private batch order.
func newReplica(build func(*rng.RNG) *nn.Sequential, modelSeed uint64, ds *data.Dataset, batch int, dataRng *rng.RNG) *replica {
	net := build(rng.New(modelSeed))
	return &replica{
		net:  net,
		st:   net.State(),
		iter: data.NewBatchIter(ds, batch, dataRng),
		x:    tensor.New(batch, ds.Features()),
		y:    make([]int, batch),
	}
}

// bnChannels lists every BN layer's channel count in BatchNorms order, the
// layer shape of the server's statistics.
func (r *replica) bnChannels() (chans []int) {
	for _, bn := range r.net.BatchNorms() {
		chans = append(chans, bn.C)
	}
	return chans
}

// pull installs the server's weights and global BN statistics, the worker
// side of Algorithm 1 lines 1–2.
func (r *replica) pull(w []float64, bnAcc *core.BNAccumulator) { install(r.st, w, bnAcc) }

// install copies weights w and the global BN statistics into a network's
// flat state: a worker's pull and an evaluation shard's refresh.
func install(st *nn.State, w []float64, bnAcc *core.BNAccumulator) {
	copy(st.Values, w)
	copy(st.RunningMean, bnAcc.Mean)
	copy(st.RunningVar, bnAcc.Var)
}

// forward takes the next mini-batch and runs the forward pass in training
// mode, returning the batch loss (Algorithm 1 line 4). BN layers capture
// their batch statistics in st as a side effect (lines 6–7).
func (r *replica) forward() float64 {
	r.iter.NextInto(r.x, r.y)
	out := r.net.Forward(r.x, true)
	return r.ce.Forward(out, r.y)
}

// backward runs backpropagation seeded with the given scale (Formula 5's
// compensation enters here, see core.CompensationScale) and returns the
// flat gradient, st.Grads, which the next backward overwrites.
func (r *replica) backward(scale float64) []float64 {
	clear(r.st.Grads)
	r.net.BackwardParams(r.ce.Backward(scale))
	return r.st.Grads
}

// gradient is forward+backward with no compensation, the whole local step
// of the non-LC algorithms. It returns the loss and the flat gradient.
func (r *replica) gradient() (float64, []float64) {
	loss := r.forward()
	return loss, r.backward(1)
}
