package lcasgd_test

// Ablation benches for the design choices DESIGN.md calls out, each on a
// trimmed quick profile. (The paper's figures and tables are regenerated by
// cmd/lcexp and timed by bench/.)
//
// The runs take seconds each, so the testing framework settles at
// b.N == 1; the printed comparison plus the reported metrics are the output
// that matters.

import (
	"fmt"
	"testing"

	"lcasgd/internal/core"
	"lcasgd/internal/ps"
	"lcasgd/internal/trainer"
)

const benchSeed = 7

// benchProfile trims the quick profile so the suite stays within a
// reasonable wall-clock budget.
func benchProfile() trainer.Profile {
	p := trainer.QuickCIFAR()
	p.Epochs = 8
	return p
}

// BenchmarkAblationLambda compares LC-ASGD with compensation on vs off at
// M=16; λ=0 reduces LC-ASGD to ASGD-plus-Async-BN on the LC timeline.
func BenchmarkAblationLambda(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p := benchProfile()
		on := trainer.RunCell(p, ps.LCASGD, 16, core.BNAsync, benchSeed)
		off := trainer.RunCellCfg(p, ps.LCASGD, 16, core.BNAsync, benchSeed, func(c *ps.Config) { c.Lambda = 0 })
		fmt.Printf("ablation lambda: λ=1 test %.2f%%  λ=0 test %.2f%%\n",
			on.FinalTestErr*100, off.FinalTestErr*100)
		b.ReportMetric(on.FinalTestErr*100, "lambda1-testerr%")
		b.ReportMetric(off.FinalTestErr*100, "lambda0-testerr%")
	}
}

// BenchmarkAblationSumCompensation compares the normalized (mean-future)
// compensation against the paper-literal raw sum of Formula 9.
func BenchmarkAblationSumCompensation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p := benchProfile()
		sum := trainer.RunCellCfg(p, ps.LCASGD, 16, core.BNAsync, benchSeed, func(c *ps.Config) { c.SumCompensation = true })
		norm := trainer.RunCell(p, ps.LCASGD, 16, core.BNAsync, benchSeed)
		fmt.Printf("ablation compensation: normalized %.2f%%  raw-sum %.2f%%\n",
			norm.FinalTestErr*100, sum.FinalTestErr*100)
		b.ReportMetric(norm.FinalTestErr*100, "normalized-testerr%")
		b.ReportMetric(sum.FinalTestErr*100, "rawsum-testerr%")
	}
}

// BenchmarkAblationNaiveStepPredictor replaces the multivariate LSTM step
// predictor with "use the last observed staleness".
func BenchmarkAblationNaiveStepPredictor(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p := benchProfile()
		naive := trainer.RunCellCfg(p, ps.LCASGD, 16, core.BNAsync, benchSeed, func(c *ps.Config) { c.NaiveStepPredictor = true })
		lstm := trainer.RunCell(p, ps.LCASGD, 16, core.BNAsync, benchSeed)
		fmt.Printf("ablation step predictor: LSTM %.2f%%  naive %.2f%%\n",
			lstm.FinalTestErr*100, naive.FinalTestErr*100)
		b.ReportMetric(lstm.FinalTestErr*100, "lstm-testerr%")
		b.ReportMetric(naive.FinalTestErr*100, "naive-testerr%")
	}
}

// BenchmarkAblationEMALossPredictor replaces the LSTM loss predictor with
// EMA + trend extrapolation.
func BenchmarkAblationEMALossPredictor(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p := benchProfile()
		ema := trainer.RunCellCfg(p, ps.LCASGD, 16, core.BNAsync, benchSeed, func(c *ps.Config) { c.EMALossPredictor = true })
		lstm := trainer.RunCell(p, ps.LCASGD, 16, core.BNAsync, benchSeed)
		fmt.Printf("ablation loss predictor: LSTM %.2f%%  EMA %.2f%%\n",
			lstm.FinalTestErr*100, ema.FinalTestErr*100)
		b.ReportMetric(lstm.FinalTestErr*100, "lstm-testerr%")
		b.ReportMetric(ema.FinalTestErr*100, "ema-testerr%")
	}
}

// BenchmarkAblationBNDecay sweeps the Async-BN EMA factor d.
func BenchmarkAblationBNDecay(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p := benchProfile()
		for _, d := range []float64{0.1, 0.5} {
			r := trainer.RunCellCfg(p, ps.ASGD, 8, core.BNAsync, benchSeed, func(c *ps.Config) { c.BNDecay = d })
			fmt.Printf("ablation BN decay d=%.1f: test %.2f%%\n", d, r.FinalTestErr*100)
			b.ReportMetric(r.FinalTestErr*100, fmt.Sprintf("d%.1f-testerr%%", d))
		}
	}
}
