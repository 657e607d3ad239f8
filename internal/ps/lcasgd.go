package ps

import (
	"lcasgd/internal/core"
	"lcasgd/internal/snapshot"
	"lcasgd/internal/telemetry"
)

// lcStrategy executes the paper's LC-ASGD (Algorithms 1–4). Each worker
// iteration is one gradient task with two server interactions:
//
//  1. Once the forward pass is done the worker pushes state_m = {loss, BN
//     stats, t_comm, t_comp}. The server appends m to the iter log
//     (observing the realized staleness), trains the step predictor and
//     forecasts k_m, trains the loss predictor and starts its forecast of
//     ℓ_delay over the next k_m steps (Formula 9), and folds the BN
//     statistics in per the BN mode.
//  2. The worker pushes its gradient; the server compensates it (Formula 5
//     via the gradient-scaling interpretation) with the ℓ_delay forecast
//     from the push, and applies Formula 8.
//
// Backpropagation is linear in its seed — the ReLU masks and BN statistics
// are fixed by the forward pass — so compensating the seed and scaling the
// finished gradient agree up to rounding: the task computes the plain
// gradient, and the commit scales it in place.
//
// The k-step roll-out behind ℓ_delay is server work nothing reads until the
// commit, so it runs beside the event loop: the push trains the loss
// predictor and takes the roll-out's first step on the loop, copies the
// primed stack into the worker's roll-out slot and starts the other k − 1
// steps there (core.LossPredictor.StartDelay); the commit joins them. A
// roll-out is a pure function of its copy, so where it runs moves no bit.
//
// The server-side predictor work adds PredVirtualMs to each iteration's
// virtual critical path, and the real measured predictor times are reported
// for Tables 2–3. On the concurrent backend the gradient task runs on the
// worker's lane while the predictor training stays on the event loop,
// preserving the delivery order the predictors train on.
type lcStrategy struct {
	cfg      Config // taken from the engine in Setup — the single source
	iterLog  *core.IterLog
	lossPred *core.LossPredictor
	stepPred *core.StepPredictor
	emaLoss  *emaPredictor
	lastComp []float64 // previous iteration's t_comp per worker
	pushes   []lcPush  // per worker: the last push, until its commit answers it
	orphans  int       // roll-outs a worker's next push joined (join)
}

// lcPush is what a state push leaves for its commit: the worker's roll-out
// slot and the job in flight on it, and what the compensation scale reads,
// captured at the push.
type lcPush struct {
	ro     core.Rollout
	job    offloop[core.Delay]
	at     float64 // virtual time of the push
	loss   float64
	k      int
	ldelay float64 // the EMA ablation's ℓ_delay, formed at the push
	gated  bool    // compensation is on: the first epoch was over at the push
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
	s.pushes = make([]lcPush, e.Workers())
}

func (s *lcStrategy) Launch(e *Engine, m int) {
	// Algorithm 1 lines 1–3: pull weights, record t_comm.
	e.Pull(m)
	tcomm := e.CommSample(m)
	// Lines 4–12 compute as one task: the forward pass (loss and BN
	// statistics, pushed as state_m once tfwd has elapsed) and the gradient
	// the commit compensates.
	wait := e.DispatchGradient(m)
	tcomp := e.CompSample(m)
	tfwd := tcomp / 3
	tbwd := tcomp - tfwd
	e.AfterWorker(m, tcomm+tfwd, func() {
		if e.Done() {
			return
		}
		wait()
		serverMs := *s.cfg.PredVirtualMs
		// A partitioned worker cannot reach the server: no state push, no
		// predictor training, no compensation and no server-side prediction
		// time on the critical path. The worker proceeds uncompensated; its
		// gradient will be dropped at commit time anyway.
		pushed := !e.Partitioned(m)
		if pushed {
			s.push(e, m, tcomm)
			s.lastComp[m] = tbwd
		} else {
			serverMs = 0
		}
		e.AfterWorker(m, serverMs+tcomm+tbwd+e.CommSample(m), func() {
			if e.Done() {
				return
			}
			grad := e.Gradient(m)
			if pushed {
				if scale := s.answer(e, m); scale != 1 {
					for i := range grad {
						grad[i] *= scale
					}
				}
			}
			e.Commit(m, grad, 1) // Formula 8
		})
	})
}

// push is Algorithm 2 lines 1–7 on worker m's state_m: log the delivery,
// forecast k, train the loss predictor and start its k-step roll-out, and
// fold the BN statistics. What the commit's scale reads is captured here.
func (s *lcStrategy) push(e *Engine, m int, tcomm float64) {
	p := &s.pushes[m]
	if _, ok := s.join(p); ok {
		// The roll-out of an iteration that crashed between its push and its
		// commit: no commit joined it.
		s.orphans++
	}
	loss := e.Loss(m)
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
	if s.emaLoss != nil {
		s.emaLoss.Observe(loss)
		p.ldelay = s.emaLoss.PredictDelay(k)
	} else {
		s.lossPred.Observe(loss)
		p.job.start(s.lossPred.StartDelay(&p.ro, k))
	}
	e.FoldStats(m)
	// Compensation is gated off during the first epoch: the online
	// predictors have not seen enough of the loss series yet, and the paper
	// itself notes prediction error "generally occurs at the beginning of
	// the training process".
	p.at, p.loss, p.k = e.Now(), loss, k
	p.gated = e.Batches() >= e.BatchesPerEpoch()
}

// answer is the commit's half of worker m's push (Algorithm 1 lines 9–12):
// it joins the roll-out, forms Formula 5's scale from what the push
// captured, and traces it at the push's time.
func (s *lcStrategy) answer(e *Engine, m int) float64 {
	p := &s.pushes[m]
	ldelay := p.ldelay
	if l, ok := s.join(p); ok {
		ldelay = l
	}
	scale := 1.0
	if p.gated {
		if s.cfg.SumCompensation {
			scale = core.CompensationScaleSum(p.loss, ldelay, s.cfg.Lambda)
		} else {
			scale = core.CompensationScale(p.loss, ldelay, p.k, s.cfg.Lambda)
		}
	}
	e.tel.emit(telemetry.Event{
		Kind: telemetry.KCompensate, Worker: int32(m), At: p.at,
		A: int64(p.k), B: int64(scale * 1e6),
	})
	return scale
}

// join joins the roll-out in flight on worker slot p, if there is one,
// charges its time to the loss predictor and returns its ℓ_delay. The commit
// joins its push's roll-out; a roll-out no commit joined is joined by the
// worker's next push (orphans counts those) or by Finish.
func (s *lcStrategy) join(p *lcPush) (ldelay float64, ok bool) {
	d, ok := p.job.join()
	if ok {
		ldelay = s.lossPred.JoinDelay(d)
	}
	return ldelay, ok
}

// WalkState walks everything LC-ASGD accumulates on the server across
// iterations: the iter delivery log, both online LSTM predictors (weights,
// windows, traces), the EMA ablation predictor when the config has one (a
// restore runs under the ConfigKey that wrote the checkpoint, so both sides
// agree on that), and the per-worker previous-computation-time memory. At a
// quiescent barrier no worker is mid-pipeline, so this is the algorithm's
// entire live state: a crashed iteration's roll-out may still run beside
// the loop, but its result reaches nothing but the wall-time counters.
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
	// The roll-outs of the pushes the budget ran out on, and of crashed
	// iterations whose worker never pushed again.
	for m := range s.pushes {
		s.join(&s.pushes[m])
	}
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
