package core

import (
	"math"
	"time"

	"lcasgd/internal/lstm"
	"lcasgd/internal/rng"
)

// StepPredictor is Algorithm 4: a multivariate online LSTM on the parameter
// server that forecasts the staleness k_m a worker will experience during
// its next iteration. Inputs per the paper are three-dimensional — the
// worker's previous staleness, its communication cost t_comm, and its
// computation cost t_comp — and the label is the staleness subsequently
// observed in the iter log.
type StepPredictor struct {
	net     *lstm.Network
	workers int

	// lastFeat holds each worker's last feature vector, row m at
	// [numFeat*m, numFeat*(m+1)), used as the training input when the
	// realized staleness label arrives (Algorithm 4 line 2); seen[m] says
	// whether row m has been written yet.
	lastFeat []float64
	seen     []bool
	// feat is the reused scratch the current iteration's features are
	// assembled in before being copied into lastFeat.
	feat []float64
	// Running scale estimates for normalizing the time features.
	commScale, compScale float64

	trace []TracePoint

	// Overhead accounting (Tables 2–3): TrainTime is the whole of every
	// ObserveAndPredict call, its prediction included.
	TrainTime time.Duration
	Calls     int
}

// NewStepPredictor builds the predictor with the paper's hidden size of 128
// per LSTM layer for a cluster of the given worker count.
func NewStepPredictor(workers int, g *rng.RNG) *StepPredictor {
	return NewStepPredictorSized(workers, 128, g)
}

// NewStepPredictorSized allows the hidden width to be varied.
func NewStepPredictorSized(workers, hidden int, g *rng.RNG) *StepPredictor {
	n := lstm.NewNetwork(numFeat, []int{hidden, hidden}, g)
	n.LR = 0.02
	n.Window = 12
	return &StepPredictor{
		net:       n,
		workers:   workers,
		lastFeat:  make([]float64, numFeat*workers),
		seen:      make([]bool, workers),
		feat:      make([]float64, numFeat),
		commScale: 1, compScale: 1,
	}
}

// numFeat is the width of the step predictor's input: staleness, t_comm
// and t_comp.
const numFeat = 3

// features normalizes (step, tcomm, tcomp) into the LSTM's input space:
// staleness is scaled by the worker count, times by running magnitude
// estimates so the network sees O(1) values regardless of cost-model units.
// The result lands in the reused p.feat scratch.
func (p *StepPredictor) features(step float64, tcomm, tcomp float64) []float64 {
	// Update running scales with a slow EMA.
	const a = 0.05
	if tcomm > 0 {
		p.commScale = (1-a)*p.commScale + a*tcomm
	}
	if tcomp > 0 {
		p.compScale = (1-a)*p.compScale + a*tcomp
	}
	p.feat[0] = step / float64(p.workers)
	p.feat[1] = tcomm / math.Max(p.commScale, 1e-9)
	p.feat[2] = tcomp / math.Max(p.compScale, 1e-9)
	return p.feat
}

// ObserveAndPredict implements Algorithm 4: the realized staleness for
// worker m (derived from the iter log) trains the model against the
// features recorded at m's previous iteration, then the model forecasts
// m's next staleness from the current features. observedStep < 0 (no label
// yet, first iteration) skips training and falls back to a cold-start
// estimate of M−1, the expected staleness under homogeneous workers.
func (p *StepPredictor) ObserveAndPredict(m int, observedStep int, tcomm, tcomp float64) int {
	start := time.Now()
	defer func() {
		p.TrainTime += time.Since(start)
		p.Calls++
	}()
	feat := p.features(float64(observedStep), tcomm, tcomp)
	prev := p.lastFeat[numFeat*m : numFeat*(m+1)]
	if p.seen[m] && observedStep >= 0 {
		// TrainStep copies prev into its window, so the per-worker row can
		// be overwritten right after.
		p.net.TrainStep(prev, float64(observedStep)/float64(p.workers))
	}
	copy(prev, feat)
	p.seen[m] = true
	if observedStep < 0 {
		return p.workers - 1
	}

	raw := p.net.Prime(feat) * float64(p.workers)

	k := int(math.Round(raw))
	if k < 0 {
		k = 0
	}
	if max := 3 * p.workers; k > max {
		k = max
	}
	p.trace = append(p.trace, TracePoint{Iteration: len(p.trace), Actual: float64(observedStep), Predicted: raw})
	return k
}

// Trace returns the (observed staleness, predicted staleness) series used
// by the Figure 8 harness.
func (p *StepPredictor) Trace() []TracePoint {
	return append([]TracePoint(nil), p.trace...)
}

// AvgTrainMs returns the mean per-call time, training and prediction, in
// milliseconds (Tables 2–3).
func (p *StepPredictor) AvgTrainMs() float64 {
	if p.Calls == 0 {
		return 0
	}
	return float64(p.TrainTime) / float64(time.Millisecond) / float64(p.Calls)
}
