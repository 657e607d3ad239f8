package ps

import "lcasgd/internal/core"

// sgdStrategy is the single-machine SGD baseline: one replica, no
// communication, one update per mini-batch. Virtual time advances by the
// sampled computation cost of each iteration.
type sgdStrategy struct{}

func (sgdStrategy) Algo() Algo { return SGD }

// FleetSize pins the fleet to one replica regardless of Config.Workers:
// sequential SGD is by definition single-machine.
func (sgdStrategy) FleetSize(int) int { return 1 }

// FixBNMode pins the accumulator to Async-BN: with one machine the EMA
// accumulation degenerates to ordinary single-machine BN, whereas
// BNReplace's last-batch overwrite would make the baseline's evaluation
// needlessly noisy.
func (sgdStrategy) FixBNMode(core.BNMode) core.BNMode { return core.BNAsync }

func (sgdStrategy) Setup(*Engine) {}

func (sgdStrategy) Launch(e *Engine, m int) {
	e.Pull(m)
	wait := e.DispatchGradient(m)
	e.AfterWorker(m, e.CompSample(m), func() {
		if e.Done() {
			return
		}
		wait()
		// Sequential training keeps its own BN running statistics — the
		// EMA accumulation degenerates to ordinary single-machine BN.
		e.FoldStats(m)
		e.Commit(m, e.Gradient(m), 1)
	})
}

func (sgdStrategy) Finish(*Engine, *Result) {}

// finalize fills the derived summary fields of a result. The headline
// final errors average the last three curve points: with the reproduction's
// small evaluation sets a single end-point is dominated by sampling noise,
// and the tail mean is the stable analogue of the paper's reported final
// test error.
func finalize(res Result, cfg Config) Result {
	if n := len(res.Points); n > 0 {
		lo := n - 3
		if lo < 0 {
			lo = 0
		}
		var tr, te float64
		for _, p := range res.Points[lo:] {
			tr += p.TrainErr
			te += p.TestErr
		}
		cnt := float64(n - lo)
		res.FinalTrainErr = tr / cnt
		res.FinalTestErr = te / cnt
	}
	if res.Updates > 0 && res.VirtualMs > 0 {
		res.AvgIterVirtualMs = res.VirtualMs / float64(res.Updates)
	}
	return res
}
