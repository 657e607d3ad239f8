package ps

import (
	"time"

	"lcasgd/internal/core"
	"lcasgd/internal/data"
	"lcasgd/internal/nn"
	"lcasgd/internal/rng"
	"lcasgd/internal/telemetry"
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
// backends report bit-identical error rates. Each shard net owns its input
// batch plus label/prediction buffers, so a steady-state evaluation batch
// allocates nothing.
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
	x      *tensor.Tensor // input batch, capacity [batchSize, features]
	chunk  *tensor.Tensor // header on evalChunk rows of x
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
	// Shard counts are result-neutral: each shard contributes an integer
	// correct-count and integer sums are order-independent.
	shards := max(min(e.backend.Parallelism(), nBatches), 1)
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

// evalChunk is the row count an evaluation Forward runs at: at 32 rows the
// quick-ImageNet net's widest activation (8 channels of 12×12) is 288 KiB,
// where a 150-row batch's is 1.4 MB and falls out of L2. Inference is
// row-independent — a row's output has the same bits whatever rows share
// its Forward — so the chunk changes no prediction.
const evalChunk = 32

// countCorrect evaluates batches start, start+stride, start+2·stride, … and
// returns the number of correctly classified samples. Each batch is
// gathered whole, then runs through the net evalChunk rows at a time, the
// net-owned chunk header re-pointed at the rows in hand.
//
// A remainder batch (ds.Len() not a multiple of batchSize) runs at its true
// size: the input buffer, like the layers' reuse buffers, is re-pointed at
// the leading rows of its full-batch capacity, so the tail allocates nothing
// and infers no padding rows.
func (n *evalNet) countCorrect(ds *data.Dataset, batchSize, start, stride int) int {
	nBatches := (ds.Len() + batchSize - 1) / batchSize
	f := ds.Features()
	if n.x == nil {
		n.x = tensor.New(batchSize, f)
		n.chunk = &tensor.Tensor{Shape: []int{0, f}}
	}
	x, chunk := n.x, n.chunk
	correct := 0
	for b := start; b < nBatches; b += stride {
		lo := b * batchSize
		size := min(batchSize, ds.Len()-lo)
		idx := n.idx[:size]
		for j := range idx {
			idx[j] = lo + j
		}
		x.Shape[0], x.Data = size, x.Data[:size*f]
		y := n.y[:size]
		ds.BatchInto(x, y, idx)
		for r0 := 0; r0 < size; r0 += evalChunk {
			m := min(evalChunk, size-r0)
			chunk.Shape[0], chunk.Data = m, x.Data[r0*f:(r0+m)*f]
			tensor.ArgmaxRowsInto(n.pred[r0:r0+m], n.net.Forward(chunk, false))
		}
		pred := n.pred[:size]
		for i, p := range pred {
			if p == y[i] {
				correct++
			}
		}
	}
	return correct
}

// recorder collects curve points at epoch boundaries. A point is a two-step
// transition: at the boundary the event loop freezes (w, BN) into the
// recorder's own buffers and reserves the point's (Epoch, Time); an
// evaluator goroutine then runs the two errOn passes on the frozen copy
// while the loop goes on committing updates, and drain appends the point
// once both errors have landed. At most one evaluation is in flight, and
// points never holds an incomplete point, so whatever serializes the curve
// (a checkpoint's chunk sections) never sees a placeholder.
//
// errOn is a pure function of (w, BN, dataset) returning integer counts, so
// where and when the goroutine runs cannot move a bit of the curve.
type recorder struct {
	env       Env
	eval      *evaluator
	evalEvery int
	lastEpoch int
	points    []Point

	w       []float64           // frozen server weights of the point in flight
	bn      *core.BNAccumulator // frozen BN statistics of the point in flight
	pending Point               // its reserved (Epoch, Time)
	job     offloop[evalDone]   // the evaluation in flight

	// Measured meters (nil without telemetry), observed on the event loop
	// at drain time: wall time inside the two passes, and wall time the
	// loop spent blocked waiting for them.
	wallMs, stallMs *telemetry.Meter
}

// evalDone is the evaluator goroutine's report.
type evalDone struct {
	trainErr, testErr float64
	wallMs            float64
}

// evalHandoff is a test hook called on the event loop right after a
// boundary's evaluation was handed to its goroutine.
var evalHandoff func(r *recorder, srv *server)

func newRecorder(env Env, modelSeed uint64, be Backend, srv *server) *recorder {
	return &recorder{
		env:       env,
		eval:      newEvaluator(env.Build, modelSeed, env.Cfg.EvalBatch, be),
		evalEvery: env.Cfg.EvalEvery,
		lastEpoch: -1,
		w:         make([]float64, len(srv.w)),
		bn:        srv.bnAcc.Clone(),
		wallMs:    env.Telemetry.Meter("eval_wall_ms"),
		stallMs:   env.Telemetry.Meter("eval_stall_ms"),
	}
}

// due reports whether maybeRecord would start a point now — the engine's
// decentralized layer uses it to refresh the consensus cache only when an
// evaluation is actually about to read it.
func (r *recorder) due(srv *server) bool {
	ep := srv.epoch()
	return ep != r.lastEpoch && ep%r.evalEvery == 0
}

// maybeRecord starts a point when a new (multiple-of-EvalEvery) epoch
// boundary has been crossed, or when force is set (final point), and
// reports whether it did. It first joins the previous evaluation: the
// back-pressure that keeps the recorder at one frozen copy.
func (r *recorder) maybeRecord(srv *server, now float64, force bool) bool {
	if !force && !r.due(srv) {
		return false
	}
	r.drain()
	copy(r.w, srv.w)
	r.bn.CopyFrom(srv.bnAcc)
	r.lastEpoch = srv.epoch()
	r.pending = Point{Epoch: r.lastEpoch, Time: now}
	r.job.start(r.evaluate)
	if evalHandoff != nil {
		evalHandoff(r, srv)
	}
	return true
}

// evaluate is the evaluator goroutine's body. It reads only the frozen copy
// and the datasets; everything else of the recorder belongs to the event
// loop.
func (r *recorder) evaluate() evalDone {
	start := time.Now()
	d := evalDone{
		trainErr: r.eval.errOn(r.env.Train, r.w, r.bn),
		testErr:  r.eval.errOn(r.env.Test, r.w, r.bn),
	}
	d.wallMs = float64(time.Since(start).Nanoseconds()) / 1e6
	return d
}

// drain joins the evaluation in flight, if any, and appends its point. The
// engine calls it wherever points must be complete: before the next point
// starts (maybeRecord), at the top of a checkpoint barrier, in finish, and
// in Engine.close.
func (r *recorder) drain() {
	if !r.job.busy {
		return
	}
	start := time.Now()
	d, _ := r.job.join()
	r.pending.TrainErr, r.pending.TestErr = d.trainErr, d.testErr
	r.points = append(r.points, r.pending)
	r.wallMs.Observe(d.wallMs)
	r.stallMs.Observe(float64(time.Since(start).Nanoseconds()) / 1e6)
}

// finish returns the collected points, guaranteeing a final sample.
func (r *recorder) finish(srv *server, now float64) []Point {
	r.drain()
	if len(r.points) == 0 || r.points[len(r.points)-1].Epoch != srv.epoch() {
		r.maybeRecord(srv, now, true)
		r.drain()
	}
	return r.points
}
