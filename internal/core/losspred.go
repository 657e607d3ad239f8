package core

import (
	"math"
	"time"

	"lcasgd/internal/lstm"
	"lcasgd/internal/rng"
)

// TracePoint pairs an observed value with the predictor's one-step-ahead
// forecast made before the observation arrived — the data behind Figures 7
// and 8. Iteration is the point's place in its trace: the index + 1 in the
// loss predictor's (whose first observation has no forecast), the index in
// the step predictor's.
type TracePoint struct {
	Iteration int
	Actual    float64
	Predicted float64
}

// LossPredictor is Algorithm 3: an online-trained LSTM (two LSTM layers and
// a linear head) living on the parameter server that models the global loss
// time series and forecasts it k steps ahead. The sum of the k predicted
// future losses is the compensation value ℓ_delay sent to the worker.
type LossPredictor struct {
	net      *lstm.Network
	lastLoss float64
	seeded   bool

	// Reused: the 1-wide LSTM input, and the roll-out slot PredictDelay
	// continues on the predictor's own stack.
	in  []float64
	own Rollout

	trace []TracePoint
	// nextPred is the one-step forecast from lastLoss, the Predicted of the
	// next trace point. stale says it has not been formed since the last
	// Observe: the roll-out of PredictDelay or StartDelay forms it (its
	// first output is that forecast), and whatever reads it first otherwise.
	nextPred float64
	stale    bool

	// Overhead accounting (Tables 2–3): cumulative wall time spent in
	// online training (Observe) and in the k-step roll-out (PredictDelay,
	// or StartDelay's part and the job's, added at JoinDelay), and the
	// number of Observe calls — one of each per update.
	TrainTime   time.Duration
	PredictTime time.Duration
	Calls       int
}

// NewLossPredictor builds the predictor with the paper's hidden size of 64
// per LSTM layer.
func NewLossPredictor(g *rng.RNG) *LossPredictor {
	return NewLossPredictorSized(64, g)
}

// NewLossPredictorSized allows the hidden width to be varied (used by the
// overhead-vs-accuracy ablation bench).
func NewLossPredictorSized(hidden int, g *rng.RNG) *LossPredictor {
	n := lstm.NewNetwork(1, []int{hidden, hidden}, g)
	n.LR = 0.2
	n.Window = 12
	return &LossPredictor{net: n, in: make([]float64, 1), own: Rollout{net: n}}
}

// Observe implements Algorithm 3 line 1: the previous loss ℓ_t is the input
// and the newly arrived loss ℓ_m is the label for one online training step.
// It also records the (actual, previously-predicted) pair for Figure 7.
func (p *LossPredictor) Observe(lossM float64) {
	start := time.Now()
	defer func() {
		p.TrainTime += time.Since(start)
		p.Calls++
	}()
	if p.seeded {
		p.forecast()
		p.trace = append(p.trace, TracePoint{Iteration: len(p.trace) + 1, Actual: lossM, Predicted: p.nextPred})
		p.in[0] = p.lastLoss
		p.net.TrainStep(p.in, lossM) // TrainStep copies the input into its window
	} else {
		p.seeded = true
	}
	p.lastLoss = lossM
	p.stale = true
}

// forecast forms nextPred if it is stale: the one-step prediction from
// lastLoss on the weights and window the last Observe left.
func (p *LossPredictor) forecast() {
	if p.stale {
		p.in[0] = p.lastLoss
		p.nextPred = p.net.Prime(p.in)
		p.stale = false
	}
}

// PredictDelay implements Algorithm 3 lines 2–3 and Formula 9: roll the
// LSTM k steps into the future (feeding each prediction back as the next
// input) and return the sum of the predicted losses. Called right after
// Observe with the same loss, as LC-ASGD does, the roll-out's first output
// is Observe's one-step forecast bit for bit — the same weights, window and
// input — so it becomes nextPred, and at k ≤ 0 one step still runs for it.
// StartDelay and JoinDelay are the same roll-out split around the event
// loop.
func (p *LossPredictor) PredictDelay(lossM float64, k int) float64 {
	fresh := p.stale && math.Float64bits(lossM) == math.Float64bits(p.lastLoss)
	if k <= 0 && !fresh {
		return 0
	}
	start := time.Now()
	defer func() { p.PredictTime += time.Since(start) }()
	p.in[0] = lossM
	out := p.net.Prime(p.in)
	if fresh {
		p.nextPred, p.stale = out, false
	}
	return p.own.delay(out, k)
}

// Rollout is one slot for a roll-out that runs off the event loop: a copy
// of the predictor's primed stack (lstm.Network.CopyPrimed) that the
// roll-out continues on, its own feedback buffer and the sum it adds up.
// The zero value is ready; the copy is built on first use.
type Rollout struct {
	net      *lstm.Network
	fb       []float64
	sum      float64
	feedback func(float64) []float64
}

// delay continues r.net's primed roll-out, whose first output was out, to
// k outputs and returns ℓ_delay: their sum, added in order as they come,
// each clamped at 0 — a loss forecast below zero is an artifact of the
// linear head, and the clamp keeps the compensation value physical.
func (r *Rollout) delay(out float64, k int) float64 {
	if k <= 0 {
		return 0
	}
	if r.feedback == nil {
		r.fb = make([]float64, 1)
		r.feedback = func(o float64) []float64 {
			r.sum += max(o, 0)
			r.fb[0] = o
			return r.fb
		}
	}
	r.sum = 0
	last := r.net.Last(out, k, r.feedback)
	return r.sum + max(last, 0)
}

// Delay is a finished off-loop roll-out: ℓ_delay, and the wall time the
// roll-out took off the loop.
type Delay struct {
	Sum  float64
	Took time.Duration
}

// StartDelay is PredictDelay for the loss Observe just took, split at the
// event loop. Here it runs the roll-out's first step — the one-step
// forecast, which becomes nextPred as in PredictDelay — and copies the
// primed stack into r; it returns the other k − 1 steps as a job that reads
// and writes only r, so it may run on any goroutine while the predictor
// trains on. JoinDelay takes the job's result back on the loop. r must not
// be started again before its job has returned. The sum is PredictDelay's
// bit for bit: the same steps on the same state, summed in the same order.
func (p *LossPredictor) StartDelay(r *Rollout, k int) func() Delay {
	start := time.Now()
	p.in[0] = p.lastLoss
	out := p.net.Prime(p.in)
	p.nextPred, p.stale = out, false
	r.net = p.net.CopyPrimed(r.net)
	p.PredictTime += time.Since(start)
	return func() Delay {
		start := time.Now()
		sum := r.delay(out, k)
		return Delay{Sum: sum, Took: time.Since(start)}
	}
}

// JoinDelay takes a StartDelay job's result back on the event loop: it
// charges the job's wall time to PredictTime, where PredictDelay's goes,
// and returns ℓ_delay.
func (p *LossPredictor) JoinDelay(d Delay) float64 {
	p.PredictTime += d.Took
	return d.Sum
}

// Trace returns the recorded (actual, predicted) series for Figure 7.
func (p *LossPredictor) Trace() []TracePoint {
	return append([]TracePoint(nil), p.trace...)
}

// AvgTrainMs returns the mean per-call time of training plus the roll-out
// in milliseconds, the quantity Tables 2–3 report.
func (p *LossPredictor) AvgTrainMs() float64 {
	if p.Calls == 0 {
		return 0
	}
	return float64(p.TrainTime+p.PredictTime) / float64(time.Millisecond) / float64(p.Calls)
}
