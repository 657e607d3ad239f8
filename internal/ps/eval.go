package ps

import (
	"runtime"

	"lcasgd/internal/core"
	"lcasgd/internal/data"
	"lcasgd/internal/nn"
	"lcasgd/internal/rng"
	"lcasgd/internal/tensor"
)

// evaluator measures the global model's error rate on a dataset. It owns a
// pool of dedicated replicas so evaluation never disturbs worker state, and
// runs in inference mode so BN uses the server's global running statistics
// — which is what makes the BN-vs-Async-BN difference measurable (Table 1).
//
// Evaluation batches are sharded across the execution backend's
// ParallelFor; each shard counts correct predictions on its own net, and
// the integer counts sum identically whatever the parallelism, so both
// backends report bit-identical error rates. Each shard net carries its own
// tensor.Workspace plus label/prediction buffers, so a steady-state
// evaluation batch allocates nothing.
type evaluator struct {
	build     func(*rng.RNG) *nn.Sequential
	modelSeed uint64
	batchSize int
	backend   Backend
	nets      []*evalNet
}

// evalNet is one inference replica of the pool with its per-shard buffers.
type evalNet struct {
	net    *nn.Sequential
	bns    []*nn.BatchNorm
	params []*nn.Param
	ws     *tensor.Workspace
	idx    []int
	y      []int
	pred   []int
}

func newEvaluator(build func(*rng.RNG) *nn.Sequential, modelSeed uint64, batchSize int, be Backend) *evaluator {
	return &evaluator{build: build, modelSeed: modelSeed, batchSize: batchSize, backend: be}
}

// pool grows the inference-replica pool to n nets and returns them.
func (e *evaluator) pool(n int) []*evalNet {
	for len(e.nets) < n {
		net := e.build(rng.New(e.modelSeed))
		e.nets = append(e.nets, &evalNet{
			net: net, bns: net.BatchNorms(), params: net.Params(),
			ws:   tensor.NewWorkspace(),
			idx:  make([]int, e.batchSize),
			y:    make([]int, e.batchSize),
			pred: make([]int, e.batchSize),
		})
	}
	return e.nets[:n]
}

// errOn returns the classification error rate of (w, bn stats) on ds.
func (e *evaluator) errOn(ds *data.Dataset, w []float64, bnAcc *core.BNAccumulator) float64 {
	nBatches := (ds.Len() + e.batchSize - 1) / e.batchSize
	shards := e.backend.Parallelism()
	// The concurrent backend reports one lane per worker, but shards beyond
	// the core count add no throughput while each one costs a pooled net
	// (nParams of weights, built once) and an O(nParams) refresh per
	// evaluation — at M in the thousands that made every curve point
	// O(M·nParams). Capping at GOMAXPROCS bounds both. Shard counts are
	// result-neutral: each shard contributes an integer correct-count and
	// integer sums are order-independent, so both backends report
	// bit-identical error rates at any cap.
	if max := runtime.GOMAXPROCS(0); shards > max {
		shards = max
	}
	if shards > nBatches {
		shards = nBatches
	}
	if shards < 1 {
		shards = 1
	}
	nets := e.pool(shards)
	counts := make([]int, shards)
	// Each shard refreshes its own net inside the parallel body: the weight
	// copy and BN application only read shared state (SetRunning copies), so
	// the O(shards × nParams) refresh overlaps instead of serializing on the
	// event loop.
	e.backend.ParallelFor(shards, func(i int) {
		nn.UnflattenValues(nets[i].params, w)
		bnAcc.Apply(nets[i].bns)
		counts[i] = nets[i].countCorrect(ds, e.batchSize, i, shards)
	})
	correct := 0
	for _, c := range counts {
		correct += c
	}
	return 1 - float64(correct)/float64(ds.Len())
}

// countCorrect evaluates batches start, start+stride, start+2·stride, … and
// returns the number of correctly classified samples.
//
// A remainder batch (ds.Len() not a multiple of batchSize) runs at its true
// size: the layers' reuse buffers serve a smaller batch from the capacity
// the full one left them (nn.reuseFor) and the workspace keeps one input
// buffer per shape, so the tail allocates nothing once warm and infers no
// padding rows.
func (n *evalNet) countCorrect(ds *data.Dataset, batchSize, start, stride int) int {
	nBatches := (ds.Len() + batchSize - 1) / batchSize
	f := ds.Features()
	correct := 0
	for b := start; b < nBatches; b += stride {
		lo := b * batchSize
		size := min(batchSize, ds.Len()-lo)
		idx := n.idx[:size]
		for j := range idx {
			idx[j] = lo + j
		}
		n.ws.Reset()
		x := n.ws.Get(size, f)
		y := n.y[:size]
		ds.BatchInto(x, y, idx)
		out := n.net.Forward(x, false)
		pred := n.pred[:size]
		tensor.ArgmaxRowsInto(pred, out)
		for i, p := range pred {
			if p == y[i] {
				correct++
			}
		}
	}
	return correct
}

// recorder collects curve points at epoch boundaries.
type recorder struct {
	env       Env
	eval      *evaluator
	evalEvery int
	lastEpoch int
	points    []Point
}

func newRecorder(env Env, modelSeed uint64, be Backend) *recorder {
	return &recorder{
		env:       env,
		eval:      newEvaluator(env.Build, modelSeed, env.Cfg.EvalBatch, be),
		evalEvery: env.Cfg.EvalEvery,
		lastEpoch: -1,
	}
}

// due reports whether maybeRecord would record a point now — the engine's
// decentralized layer uses it to refresh the consensus cache only when an
// evaluation is actually about to read it.
func (r *recorder) due(srv *server) bool {
	ep := srv.epoch()
	return ep != r.lastEpoch && ep%r.evalEvery == 0
}

// maybeRecord evaluates and appends a point when a new (multiple-of-
// EvalEvery) epoch boundary has been crossed, or when force is set (final
// point).
func (r *recorder) maybeRecord(srv *server, now float64, force bool) {
	ep := srv.epoch()
	if !force {
		if ep == r.lastEpoch || ep%r.evalEvery != 0 {
			return
		}
	}
	if ep == r.lastEpoch && !force {
		return
	}
	trainErr := r.eval.errOn(r.env.Train, srv.w, srv.bnAcc)
	testErr := r.eval.errOn(r.env.Test, srv.w, srv.bnAcc)
	r.lastEpoch = ep
	r.points = append(r.points, Point{Epoch: ep, Time: now, TrainErr: trainErr, TestErr: testErr})
}

// finish returns the collected points, guaranteeing a final sample.
func (r *recorder) finish(srv *server, now float64) []Point {
	if len(r.points) == 0 || r.points[len(r.points)-1].Epoch != srv.epoch() {
		r.maybeRecord(srv, now, true)
	}
	return r.points
}
