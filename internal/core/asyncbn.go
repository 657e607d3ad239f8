package core

import (
	"fmt"

	"lcasgd/internal/nn"
)

// BNMode selects how the parameter server folds worker batch-normalization
// statistics into the global model.
type BNMode int

const (
	// BNReplace is the paper's "regular BN" distributed baseline: the
	// server's global statistics are overwritten by whichever worker
	// reported most recently.
	BNReplace BNMode = iota
	// BNAsync is the paper's Async-BN: the server accumulates every
	// worker's statistics with an exponential moving average
	// (Formulas 6–7), so the statistics workers retrieve are consistent
	// across the cluster.
	BNAsync
)

// String names the mode as the paper's Table 1 columns do.
func (m BNMode) String() string {
	switch m {
	case BNReplace:
		return "BN"
	case BNAsync:
		return "Async-BN"
	default:
		return fmt.Sprintf("BNMode(%d)", int(m))
	}
}

// LayerStats is one BN layer's per-channel mean and variance as reported by
// a worker (the state_m[mean], state_m[var] entries of Algorithm 1).
type LayerStats struct {
	Mean, Var []float64
}

// CollectStatsInto refreshes dst in place with the most recent batch
// statistics of every BN layer of a worker replica, allocating the
// per-layer slices only when dst is nil or mis-shaped; the replicas call it
// once per iteration.
func CollectStatsInto(dst []LayerStats, bns []*nn.BatchNorm) []LayerStats {
	if len(dst) != len(bns) {
		dst = make([]LayerStats, len(bns))
	}
	for i, bn := range bns {
		if len(dst[i].Mean) != bn.C {
			dst[i] = LayerStats{Mean: make([]float64, bn.C), Var: make([]float64, bn.C)}
		}
		bn.ReadBatchStats(dst[i].Mean, dst[i].Var)
	}
	return dst
}

// BNAccumulator is the server-side owner of the global normalization
// statistics for every BN layer in the model.
type BNAccumulator struct {
	Mode  BNMode
	Decay float64 // the EMA factor d of Formulas 6–7
	mean  [][]float64
	vari  [][]float64
}

// NewBNAccumulator initializes global statistics (mean 0, variance 1, the
// same initialization BN layers use) shaped like the given model's BN
// stack.
func NewBNAccumulator(mode BNMode, decay float64, bns []*nn.BatchNorm) *BNAccumulator {
	a := &BNAccumulator{Mode: mode, Decay: decay}
	for _, bn := range bns {
		a.mean = append(a.mean, make([]float64, bn.C))
		v := make([]float64, bn.C)
		for i := range v {
			v[i] = 1
		}
		a.vari = append(a.vari, v)
	}
	return a
}

// Update folds one worker's reported statistics into the global state
// according to the mode: Async-BN applies E ← (1−d)E + d·mean_m per
// Formula 6 (and likewise for variance per Formula 7); regular BN replaces.
func (a *BNAccumulator) Update(stats []LayerStats) {
	if len(stats) != len(a.mean) {
		panic(fmt.Sprintf("core: BN stats for %d layers, accumulator has %d", len(stats), len(a.mean)))
	}
	for li, s := range stats {
		if len(s.Mean) != len(a.mean[li]) {
			panic(fmt.Sprintf("core: BN layer %d has %d channels, got %d", li, len(a.mean[li]), len(s.Mean)))
		}
		switch a.Mode {
		case BNAsync:
			d := a.Decay
			for c := range s.Mean {
				a.mean[li][c] = (1-d)*a.mean[li][c] + d*s.Mean[c]
				a.vari[li][c] = (1-d)*a.vari[li][c] + d*s.Var[c]
			}
		default: // BNReplace
			copy(a.mean[li], s.Mean)
			copy(a.vari[li], s.Var)
		}
	}
}

// Apply writes the global statistics into a model replica's BN layers —
// part of the weight pull a worker performs at the start of each iteration,
// and of loading the global model for evaluation.
func (a *BNAccumulator) Apply(bns []*nn.BatchNorm) {
	if len(bns) != len(a.mean) {
		panic(fmt.Sprintf("core: applying %d BN layers, accumulator has %d", len(bns), len(a.mean)))
	}
	for li, bn := range bns {
		bn.SetRunning(a.mean[li], a.vari[li])
	}
}

// Snapshot returns deep copies of the global statistics (used by tests and
// by the evaluation path to avoid aliasing).
func (a *BNAccumulator) Snapshot() (mean, vari [][]float64) {
	for li := range a.mean {
		mean = append(mean, append([]float64(nil), a.mean[li]...))
		vari = append(vari, append([]float64(nil), a.vari[li]...))
	}
	return mean, vari
}
