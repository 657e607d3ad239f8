package ps

import (
	"lcasgd/internal/core"
	"lcasgd/internal/snapshot"
	"lcasgd/internal/telemetry"
)

// lcStrategy executes the paper's LC-ASGD (Algorithms 1–4). Each worker
// iteration has two server interactions:
//
//  1. After the forward pass the worker pushes state_m = {loss, BN stats,
//     t_comm, t_comp}. The server appends m to the iter log (observing the
//     realized staleness), trains the step predictor and forecasts k_m,
//     trains the loss predictor and forecasts ℓ_delay over the next k_m
//     steps (Formula 9), folds the BN statistics in per the BN mode, and
//     replies with ℓ_delay.
//  2. The worker computes the compensated gradient (Formula 5 via the
//     gradient-scaling interpretation) and pushes it; the server applies
//     Formula 8.
//
// The server-side predictor work adds PredVirtualMs to each iteration's
// virtual critical path, and the real measured predictor times are reported
// for Tables 2–3. On the concurrent backend the forward and backward passes
// run on the worker's lane while the server-side predictor work stays on
// the event loop, preserving the delivery order the predictors train on.
type lcStrategy struct {
	cfg      Config // taken from the engine in Setup — the single source
	iterLog  *core.IterLog
	lossPred *core.LossPredictor
	stepPred *core.StepPredictor
	emaLoss  *emaPredictor
	lastComp []float64 // previous iteration's t_comp per worker
}

func (*lcStrategy) Algo() Algo { return LCASGD }

func (s *lcStrategy) Setup(e *Engine) {
	s.cfg = e.Config()
	predRng := e.Rng(400)
	s.iterLog = core.NewIterLog(e.Workers())
	s.lossPred = core.NewLossPredictorSized(s.cfg.LossPredHidden, predRng.SplitLabeled(1))
	s.stepPred = core.NewStepPredictorSized(e.Workers(), s.cfg.StepPredHidden, predRng.SplitLabeled(2))
	if s.cfg.EMALossPredictor {
		s.emaLoss = newEMAPredictor(0.3)
	}
	s.lastComp = make([]float64, e.Workers())
}

func (s *lcStrategy) Launch(e *Engine, m int) {
	// Algorithm 1 lines 1–3: pull weights, record t_comm.
	e.Pull(m)
	tcomm := e.CommSample(m)
	// Lines 4–8: forward pass, record loss and BN statistics, push state.
	fwdWait := e.DispatchForward(m)
	tcomp := e.CompSample(m)
	tfwd := tcomp / 3
	tbwd := tcomp - tfwd
	e.AfterWorker(m, tcomm+tfwd, func() {
		if e.Done() {
			return
		}
		fwdWait()
		scale := 1.0
		serverMs := *s.cfg.PredVirtualMs
		if e.Partitioned(m) {
			// The server is unreachable: no state push, no predictor
			// training, no compensation reply and no server-side prediction
			// time on the critical path. The worker proceeds uncompensated;
			// its gradient will be dropped at commit time anyway.
			serverMs = 0
		} else {
			loss := e.Loss(m)
			// Algorithm 2 lines 1–7: server handles state_m.
			observed := s.iterLog.Append(m)
			var k int
			if s.cfg.NaiveStepPredictor {
				k = observed
				if k < 0 {
					k = e.Workers() - 1
				}
			} else {
				k = s.stepPred.ObserveAndPredict(m, observed, tcomm, s.lastComp[m])
			}
			var ldelay float64
			if s.emaLoss != nil {
				s.emaLoss.Observe(loss)
				ldelay = s.emaLoss.PredictDelay(k)
			} else {
				s.lossPred.Observe(loss)
				ldelay = s.lossPred.PredictDelay(loss, k)
			}
			e.FoldStats(m)
			// Algorithm 1 lines 9–12: compensated backward pass, push grads.
			// Compensation is gated off during the first epoch: the online
			// predictors have not seen enough of the loss series yet, and
			// the paper itself notes prediction error "generally occurs at
			// the beginning of the training process".
			if e.Batches() >= e.BatchesPerEpoch() {
				if s.cfg.SumCompensation {
					scale = core.CompensationScaleSum(loss, ldelay, s.cfg.Lambda)
				} else {
					scale = core.CompensationScale(loss, ldelay, k, s.cfg.Lambda)
				}
			}
			s.lastComp[m] = tbwd
			e.tel.emit(telemetry.Event{
				Kind: telemetry.KCompensate, Worker: int32(m), At: e.Now(),
				A: int64(k), B: int64(scale * 1e6),
			})
		}
		bwdWait := e.DispatchBackward(m, scale)
		e.AfterWorker(m, serverMs+tcomm+tbwd+e.CommSample(m), func() {
			if e.Done() {
				return
			}
			bwdWait()
			e.Commit(m, e.Gradient(m), 1) // Formula 8
		})
	})
}

// WalkState walks everything LC-ASGD accumulates on the server across
// iterations: the iter delivery log, both online LSTM predictors (weights,
// windows, traces), the EMA ablation predictor when the config has one (a
// restore runs under the ConfigKey that wrote the checkpoint, so both sides
// agree on that), and the per-worker previous-computation-time memory. At a
// quiescent barrier no worker is mid-pipeline, so this is the algorithm's
// entire live state.
func (s *lcStrategy) WalkState(_ *Engine, c snapshot.Codec) {
	s.iterLog.Walk(c)
	s.lossPred.Walk(c)
	s.stepPred.Walk(c)
	if s.emaLoss != nil {
		c.F64(&s.emaLoss.level)
		c.F64(&s.emaLoss.trend)
		c.Bool(&s.emaLoss.seen)
		c.F64(&s.emaLoss.last)
	}
	c.F64sInto(s.lastComp)
}

func (s *lcStrategy) Finish(e *Engine, res *Result) {
	res.LossTrace = s.lossPred.Trace()
	res.StepTrace = s.stepPred.Trace()
	res.AvgLossPredMs = s.lossPred.AvgTrainMs()
	res.AvgStepPredMs = s.stepPred.AvgTrainMs()
}

// emaPredictor is the ablation baseline for the loss predictor: an
// exponential moving average with linear trend extrapolation.
type emaPredictor struct {
	alpha float64
	level float64
	trend float64
	seen  bool
	last  float64
}

func newEMAPredictor(alpha float64) *emaPredictor { return &emaPredictor{alpha: alpha} }

// Observe updates the level/trend estimates with a new loss value.
func (p *emaPredictor) Observe(v float64) {
	if !p.seen {
		p.level, p.seen, p.last = v, true, v
		return
	}
	prevLevel := p.level
	p.level = p.alpha*v + (1-p.alpha)*p.level
	p.trend = p.alpha*(p.level-prevLevel) + (1-p.alpha)*p.trend
	p.last = v
}

// PredictDelay extrapolates k steps ahead and sums, mirroring Formula 9.
func (p *emaPredictor) PredictDelay(k int) float64 {
	sum := 0.0
	for i := 1; i <= k; i++ {
		v := p.level + float64(i)*p.trend
		if v < 0 {
			v = 0
		}
		sum += v
	}
	return sum
}
