package lcasgd_test

// Cross-module integration tests: full training pipelines wired through
// the public harness, exercising data generation, model building, the
// event-driven cluster, the predictors and the evaluator together.

import (
	"testing"

	"lcasgd/internal/cluster"
	"lcasgd/internal/core"
	"lcasgd/internal/data"
	"lcasgd/internal/model"
	"lcasgd/internal/nn"
	"lcasgd/internal/ps"
	"lcasgd/internal/rng"
	"lcasgd/internal/trainer"
)

// integEnv is a fast end-to-end environment with a real (small) conv net.
func integEnv(algo ps.Algo, workers int) ps.Env {
	d := data.Config{
		Classes: 3, C: 1, H: 6, W: 6,
		Train: 120, Test: 60,
		NoiseSigma: 0.7, SignalScale: 0.5, Smoothing: 1, Seed: 11,
	}
	train, test := data.Generate(d)
	m := model.Config{Name: "integ", InC: 1, InH: 6, InW: 6, Stem: 4, StageReps: []int{1}, NumClasses: 3}
	return ps.Env{
		Train: train,
		Test:  test,
		Build: func(g *rng.RNG) *nn.Sequential { return m.Build(g) },
		Cfg: ps.Config{
			Algo: algo, Workers: workers, BatchSize: 20, Epochs: 8,
			LR: 0.12, Lambda: 1, DCLambda: 0.3, WeightDecay: 1e-3,
			BNMode: core.BNAsync, Seed: 5, Cost: cluster.CIFARCostModel(),
			LossPredHidden: 8, StepPredHidden: 8,
		},
	}
}

func TestEndToEndAllAlgorithmsLearnConvNet(t *testing.T) {
	for _, algo := range []ps.Algo{ps.SGD, ps.SSGD, ps.ASGD, ps.DCASGD, ps.LCASGD} {
		workers := 4
		if algo == ps.SGD {
			workers = 1
		}
		res := ps.Run(integEnv(algo, workers))
		first := res.Points[0].TrainErr
		if res.FinalTrainErr >= first {
			t.Fatalf("%s: conv net did not learn (train err %v -> %v)", algo, first, res.FinalTrainErr)
		}
		if res.FinalTestErr > 0.6 {
			t.Fatalf("%s: test error %v on an easy 3-class task", algo, res.FinalTestErr)
		}
	}
}

func TestASGDWithOneWorkerHasZeroStaleness(t *testing.T) {
	res := ps.Run(integEnv(ps.ASGD, 1))
	if res.MeanStaleness != 0 {
		t.Fatalf("single-worker ASGD staleness %v, want 0", res.MeanStaleness)
	}
}

func TestBNModesProduceDifferentGlobalStats(t *testing.T) {
	e1 := integEnv(ps.ASGD, 4)
	e1.Cfg.BNMode = core.BNReplace
	e2 := integEnv(ps.ASGD, 4)
	r1, r2 := ps.Run(e1), ps.Run(e2)
	same := true
	for i := range r1.Points {
		if r1.Points[i].TestErr != r2.Points[i].TestErr {
			same = false
			break
		}
	}
	if same {
		t.Fatal("BN vs Async-BN produced identical evaluations end-to-end")
	}
}

func TestHarnessDeterministicEndToEnd(t *testing.T) {
	p := trainer.Profile{
		Name: "integ",
		Data: data.Config{Classes: 3, C: 1, H: 6, W: 6, Train: 120, Test: 60,
			NoiseSigma: 0.7, SignalScale: 0.5, Smoothing: 1, Seed: 11},
		Model: model.Config{Name: "integ", InC: 1, InH: 6, InW: 6, Stem: 4,
			StageReps: []int{1}, NumClasses: 3},
		Batch: 20, Epochs: 2, LR: 0.08, WD: 1e-3, Lambda: 1, DCLam: 0.3,
		Cost: cluster.CIFARCostModel(), BNDecay: 0.2,
		LossPredHidden: 8, StepPredHidden: 8,
	}
	a := trainer.RunCell(p, ps.LCASGD, 4, core.BNAsync, 33)
	b := trainer.RunCell(p, ps.LCASGD, 4, core.BNAsync, 33)
	if len(a.Points) != len(b.Points) {
		t.Fatal("runs differ in length")
	}
	for i := range a.Points {
		if a.Points[i] != b.Points[i] {
			t.Fatalf("harness not deterministic at point %d", i)
		}
	}
	if len(a.LossTrace) != len(b.LossTrace) {
		t.Fatal("predictor traces differ")
	}
}

func TestVirtualSpeedupOrdering(t *testing.T) {
	// Figures 4/6 shape: with the same sample budget, virtual duration
	// must order SGD > SSGD > LC-ASGD > ASGD... LC is slower than ASGD but
	// still far faster than sequential.
	sgd := ps.Run(integEnv(ps.SGD, 1))
	ssgd := ps.Run(integEnv(ps.SSGD, 8))
	asgd := ps.Run(integEnv(ps.ASGD, 8))
	lc := ps.Run(integEnv(ps.LCASGD, 8))
	if !(sgd.VirtualMs > ssgd.VirtualMs && ssgd.VirtualMs > asgd.VirtualMs) {
		t.Fatalf("speed ordering broken: SGD %v SSGD %v ASGD %v",
			sgd.VirtualMs, ssgd.VirtualMs, asgd.VirtualMs)
	}
	if !(lc.VirtualMs > asgd.VirtualMs && lc.VirtualMs < sgd.VirtualMs) {
		t.Fatalf("LC-ASGD virtual time %v out of expected band (ASGD %v, SGD %v)",
			lc.VirtualMs, asgd.VirtualMs, sgd.VirtualMs)
	}
}
