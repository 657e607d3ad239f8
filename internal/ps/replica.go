package ps

import (
	"sync"

	"lcasgd/internal/core"
	"lcasgd/internal/data"
	"lcasgd/internal/nn"
	"lcasgd/internal/rng"
	"lcasgd/internal/tensor"
)

// replica is what a worker is between dispatches: its flat model state st
// (the vectors the server exchanges and that must outlive a dispatch), its
// view of the shared dataset, and its input batch and labels. It holds no
// network: a dispatched task binds a pooled executor to st (nn.Sequential
// Bind), computes, and gives it back.
//
// Memory model (see DESIGN.md): the replica owns its state, input batch x
// and label buffer; an executor's layers own the activation and gradient
// buffers and compute in place on the bound state — the pull copies into
// it and the push reads it in place — so a steady-state iteration (pull +
// gradient + stats) performs zero heap allocations.
type replica struct {
	st   *nn.State
	iter *data.BatchIter

	x *tensor.Tensor // input batch [batch, features], refilled by every gradient
	y []int          // reusable label buffer
}

// newReplica builds a worker replica around st, a State of the model's
// layout the first pull fills; dataRng drives this worker's private batch
// order.
func newReplica(st *nn.State, ds *data.Dataset, batch int, dataRng *rng.RNG) *replica {
	return &replica{
		st:   st,
		iter: data.NewBatchIter(ds, batch, dataRng),
		x:    tensor.New(batch, ds.Features()),
		y:    make([]int, batch),
	}
}

// pull installs the server's weights and global BN statistics, the worker
// side of Algorithm 1 lines 1–2.
func (r *replica) pull(w []float64, bnAcc *core.BNAccumulator) {
	copy(r.st.Values, w)
	copy(r.st.RunningMean, bnAcc.Mean)
	copy(r.st.RunningVar, bnAcc.Var)
}

// gradient binds x to the replica, takes the next mini-batch and runs the
// whole local step on it: the forward pass in training mode (Algorithm 1
// line 4), whose BN layers capture their batch statistics in st as a side
// effect (lines 6–7), then backpropagation into st.Grads, which the next
// gradient overwrites. It returns the batch loss.
func (r *replica) gradient(x *executor) float64 {
	x.net.Bind(r.st)
	r.iter.NextInto(r.x, r.y)
	loss := x.ce.Forward(x.net.Forward(r.x, true), r.y)
	clear(r.st.Grads)
	x.net.BackwardParams(x.ce.Backward(1))
	return loss
}

// bnChannels lists every BN layer's channel count in BatchNorms order, the
// layer shape of the server's statistics.
func bnChannels(net *nn.Sequential) (chans []int) {
	for _, bn := range net.BatchNorms() {
		chans = append(chans, bn.C)
	}
	return chans
}

// executor is what computes a replica, or an evaluation shard: a network
// with its activation buffers and the loss that seeds its backward pass.
// It holds no value a later dispatch reads — the weights, gradients and BN
// statistics are those of whatever State it is bound to — so any executor
// computes any worker's step to the same bits.
type executor struct {
	net *nn.Sequential
	ce  nn.SoftmaxCrossEntropy
}

// execPool is an engine's free list of executors, shared by its workers'
// dispatched tasks and its evaluation shards, which take from it on their
// lanes and goroutines: a mutex-guarded LIFO, grown by building a network
// from the model seed when empty. So it holds at most as many executors as
// have computed at once — a dispatched task or an evaluation shard —
// however large the fleet. It is per engine: runs never share one.
type execPool struct {
	build     func(*rng.RNG) *nn.Sequential
	modelSeed uint64

	mu   sync.Mutex
	free []*executor
}

func newExecPool(build func(*rng.RNG) *nn.Sequential, modelSeed uint64) *execPool {
	return &execPool{build: build, modelSeed: modelSeed}
}

// get takes the most recently returned executor, or builds one (outside the
// lock) when none is free.
func (p *execPool) get() *executor {
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		x := p.free[n-1]
		p.free = p.free[:n-1]
		p.mu.Unlock()
		return x
	}
	p.mu.Unlock()
	net := p.build(rng.New(p.modelSeed))
	net.State()
	return &executor{net: net}
}

// put returns x to the pool.
func (p *execPool) put(x *executor) {
	p.mu.Lock()
	p.free = append(p.free, x)
	p.mu.Unlock()
}
