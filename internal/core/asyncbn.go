package core

import "fmt"

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

// BNAccumulator is the server-side owner of the global normalization
// statistics: every BN layer's per-channel mean and variance, flat in the
// model's BN order — the layout of nn.State's running statistics, which a
// pull copies Mean and Var into, and of its batch statistics, the state_m
// [mean] and state_m[var] entries of Algorithm 1 that Update folds.
type BNAccumulator struct {
	Mode      BNMode
	Decay     float64 // the EMA factor d of Formulas 6–7
	Mean, Var []float64
	chans     []int // channels per BN layer, for the checkpoint walk
}

// NewBNAccumulator initializes global statistics (mean 0, variance 1, the
// same initialization BN layers use) for BN layers of the given channel
// counts.
func NewBNAccumulator(mode BNMode, decay float64, chans []int) *BNAccumulator {
	n := 0
	for _, c := range chans {
		n += c
	}
	a := &BNAccumulator{Mode: mode, Decay: decay, Mean: make([]float64, n), Var: make([]float64, n), chans: chans}
	for i := range a.Var {
		a.Var[i] = 1
	}
	return a
}

// Update folds one worker's reported statistics into the global state
// according to the mode: Async-BN applies E ← (1−d)E + d·mean_m per
// Formula 6 (and likewise for variance per Formula 7); regular BN replaces.
func (a *BNAccumulator) Update(mean, vari []float64) {
	if len(mean) != len(a.Mean) || len(vari) != len(a.Var) {
		panic(fmt.Sprintf("core: BN stats of %d/%d channels, accumulator has %d", len(mean), len(vari), len(a.Mean)))
	}
	switch a.Mode {
	case BNAsync:
		d := a.Decay
		for c, m := range mean {
			a.Mean[c] = (1-d)*a.Mean[c] + d*m
			a.Var[c] = (1-d)*a.Var[c] + d*vari[c]
		}
	default: // BNReplace
		copy(a.Mean, mean)
		copy(a.Var, vari)
	}
}
