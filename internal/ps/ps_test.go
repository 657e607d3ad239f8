package ps

import (
	"math"
	"slices"
	"testing"

	"lcasgd/internal/cluster"
	"lcasgd/internal/core"
	"lcasgd/internal/data"
	"lcasgd/internal/model"
	"lcasgd/internal/nn"
	"lcasgd/internal/rng"
)

// tinyEnvSeeded builds a fast MLP-on-blobs environment for algorithm tests.
func tinyEnvSeeded(algo Algo, workers, epochs int) Env {
	d := data.Config{
		Classes: 4, C: 1, H: 6, W: 6,
		Train: 160, Test: 80,
		NoiseSigma: 0.8, SignalScale: 0.5, Smoothing: 1, Seed: 99,
	}
	train, test := data.Generate(d)
	cfg := Config{
		Algo:      algo,
		Workers:   workers,
		BatchSize: 20,
		Epochs:    epochs,
		LR:        0.1,
		Lambda:    1,
		DCLambda:  0.3,
		BNMode:    core.BNAsync,
		Seed:      7,
		Cost:      cluster.CIFARCostModel(),
		// Small predictors keep LC tests fast.
		LossPredHidden: 8, StepPredHidden: 8,
	}
	return Env{
		Train: train,
		Test:  test,
		Build: func(g *rng.RNG) *nn.Sequential { return model.MLP("t", 36, 16, 4, g) },
		Cfg:   cfg,
	}
}

func TestSequentialSGDLearns(t *testing.T) {
	res := Run(tinyEnvSeeded(SGD, 1, 6))
	if res.Algo != SGD || len(res.Points) == 0 {
		t.Fatalf("bad result: %+v", res.Algo)
	}
	first, last := res.Points[0], res.Points[len(res.Points)-1]
	if last.TrainErr >= first.TrainErr {
		t.Fatalf("train error did not decrease: %v -> %v", first.TrainErr, last.TrainErr)
	}
	if res.FinalTestErr > 0.5 {
		t.Fatalf("final test error %v on an easy task", res.FinalTestErr)
	}
	if res.Updates != 6*8 {
		t.Fatalf("updates %d, want 48", res.Updates)
	}
	if res.VirtualMs <= 0 {
		t.Fatal("virtual clock did not advance")
	}
}

func TestAllAlgorithmsRun(t *testing.T) {
	for _, algo := range []Algo{SGD, SSGD, ASGD, DCASGD, LCASGD} {
		workers := 4
		if algo == SGD {
			workers = 1
		}
		res := Run(tinyEnvSeeded(algo, workers, 3))
		if len(res.Points) < 2 {
			t.Fatalf("%s produced %d points", algo, len(res.Points))
		}
		for _, p := range res.Points {
			if math.IsNaN(p.TestErr) || p.TestErr < 0 || p.TestErr > 1 {
				t.Fatalf("%s produced invalid error %v", algo, p.TestErr)
			}
		}
	}
}

func TestDeterminism(t *testing.T) {
	for _, algo := range []Algo{SSGD, ASGD, DCASGD, LCASGD} {
		a := Run(tinyEnvSeeded(algo, 4, 2))
		b := Run(tinyEnvSeeded(algo, 4, 2))
		if len(a.Points) != len(b.Points) {
			t.Fatalf("%s: point counts differ", algo)
		}
		for i := range a.Points {
			if a.Points[i] != b.Points[i] {
				t.Fatalf("%s: run not deterministic at point %d: %+v vs %+v",
					algo, i, a.Points[i], b.Points[i])
			}
		}
		if a.VirtualMs != b.VirtualMs {
			t.Fatalf("%s: virtual durations differ", algo)
		}
	}
}

func TestSSGDRoundAccounting(t *testing.T) {
	res := Run(tinyEnvSeeded(SSGD, 4, 4))
	// 4 epochs × 8 batches = 32 batches; each round consumes 4 → 8 updates.
	if res.Updates != 8 {
		t.Fatalf("SSGD updates %d, want 8", res.Updates)
	}
}

func TestAsyncStalenessNearMMinus1(t *testing.T) {
	res := Run(tinyEnvSeeded(ASGD, 8, 4))
	if res.MeanStaleness < 5 || res.MeanStaleness > 10 {
		t.Fatalf("mean staleness %v for M=8, want ≈7", res.MeanStaleness)
	}
}

func TestASGDFasterThanSSGDVirtually(t *testing.T) {
	ssgd := Run(tinyEnvSeeded(SSGD, 8, 3))
	asgd := Run(tinyEnvSeeded(ASGD, 8, 3))
	// Same sample budget; the barrier makes SSGD strictly slower in
	// virtual time (max over workers vs pipelined workers).
	if asgd.VirtualMs >= ssgd.VirtualMs {
		t.Fatalf("ASGD %vms not faster than SSGD %vms", asgd.VirtualMs, ssgd.VirtualMs)
	}
}

func TestDistributedFasterThanSequential(t *testing.T) {
	sgd := Run(tinyEnvSeeded(SGD, 1, 3))
	asgd := Run(tinyEnvSeeded(ASGD, 8, 3))
	if asgd.VirtualMs >= sgd.VirtualMs/2 {
		t.Fatalf("ASGD with 8 workers (%vms) not ≥2x faster than SGD (%vms)",
			asgd.VirtualMs, sgd.VirtualMs)
	}
}

func TestLCASGDProducesTracesAndOverhead(t *testing.T) {
	res := Run(tinyEnvSeeded(LCASGD, 4, 3))
	if len(res.LossTrace) == 0 {
		t.Fatal("no loss-predictor trace")
	}
	if len(res.StepTrace) == 0 {
		t.Fatal("no step-predictor trace")
	}
	if res.AvgLossPredMs <= 0 || res.AvgStepPredMs <= 0 {
		t.Fatalf("predictor overhead not measured: %v %v", res.AvgLossPredMs, res.AvgStepPredMs)
	}
	if res.MeanStaleness <= 0 {
		t.Fatal("staleness not measured")
	}
}

func TestLCASGDVirtualOverheadInjected(t *testing.T) {
	lc := Run(tinyEnvSeeded(LCASGD, 4, 3))
	asgd := Run(tinyEnvSeeded(ASGD, 4, 3))
	// LC adds an extra communication round plus predictor time per
	// iteration, so it must be virtually slower than plain ASGD.
	if lc.VirtualMs <= asgd.VirtualMs {
		t.Fatalf("LC-ASGD %vms not slower than ASGD %vms", lc.VirtualMs, asgd.VirtualMs)
	}
}

func TestBNModeChangesResult(t *testing.T) {
	e1 := tinyEnvSeeded(ASGD, 4, 3)
	e1.Cfg.BNMode = core.BNReplace
	e2 := tinyEnvSeeded(ASGD, 4, 3)
	e2.Cfg.BNMode = core.BNAsync
	a, b := Run(e1), Run(e2)
	if a.BNMode == b.BNMode {
		t.Fatal("modes not propagated")
	}
	diff := false
	for i := range a.Points {
		if a.Points[i].TestErr != b.Points[i].TestErr {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("BN mode had no effect on evaluation")
	}
}

func TestLambdaZeroStillRuns(t *testing.T) {
	e := tinyEnvSeeded(LCASGD, 4, 2)
	e.Cfg.Lambda = 0
	res := Run(e)
	if len(res.Points) == 0 {
		t.Fatal("no points")
	}
}

func TestAblationFlagsRun(t *testing.T) {
	for _, mut := range []func(*Config){
		func(c *Config) { c.SumCompensation = true },
		func(c *Config) { c.NaiveStepPredictor = true },
		func(c *Config) { c.EMALossPredictor = true },
	} {
		e := tinyEnvSeeded(LCASGD, 4, 2)
		mut(&e.Cfg)
		res := Run(e)
		if len(res.Points) == 0 {
			t.Fatal("ablation run produced no points")
		}
	}
}

// TestPredVirtualMsZeroMeansZero: PredVirtualMs left unset is the paper's
// 2.7 ms — the same run, under the same ConfigKey, as an explicit 2.7 — and
// a pointer to 0 takes the charge off LC-ASGD's critical path, so the same
// epochs take less virtual time.
func TestPredVirtualMsZeroMeansZero(t *testing.T) {
	def := tinyEnvSeeded(LCASGD, 4, 2)
	paper, off := 2.7, 0.0
	explicit := def.Cfg
	explicit.PredVirtualMs = &paper
	if ConfigKey(explicit) != ConfigKey(def.Cfg) {
		t.Fatal("an explicit 2.7 ms changed the config key of the default")
	}
	free := def
	free.Cfg.PredVirtualMs = &off
	if ConfigKey(free.Cfg) == ConfigKey(def.Cfg) {
		t.Fatal("PredVirtualMs = 0 shares the default's config key")
	}
	charged, uncharged := Run(def), Run(free)
	if !(uncharged.VirtualMs < charged.VirtualMs) {
		t.Fatalf("virtual time with the charge off %v ms, with it %v ms", uncharged.VirtualMs, charged.VirtualMs)
	}
}

func TestCompensateDCFormula(t *testing.T) {
	g := []float64{1, -2}
	wNow := []float64{1, 1}
	wBak := []float64{0, 2}
	compensateDC(g, wNow, wBak, 0.5)
	// g0 = 1 + 0.5*1*1*(1-0) = 1.5; g1 = -2 + 0.5*4*(1-2) = -4
	if g[0] != 1.5 || g[1] != -4 {
		t.Fatalf("DC compensation: %v", g)
	}
}

func TestServerLRSchedule(t *testing.T) {
	e := tinyEnvSeeded(SGD, 1, 8)
	srvW := make([]float64, 1)
	bn := core.NewBNAccumulator(core.BNAsync, 0.2, nil)
	srv := newServer(srvW, bn, e.Cfg, 8)
	if srv.lr() != e.Cfg.LR {
		t.Fatalf("initial lr %v", srv.lr())
	}
	srv.batches = 4 * 8 // epoch 4 of 8 → first boundary
	if math.Abs(srv.lr()-e.Cfg.LR/10) > 1e-12 {
		t.Fatalf("lr after first drop: %v", srv.lr())
	}
	srv.batches = 6 * 8 // epoch 6 → second boundary
	if math.Abs(srv.lr()-e.Cfg.LR/100) > 1e-12 {
		t.Fatalf("lr after second drop: %v", srv.lr())
	}
}

func TestServerWeightDecay(t *testing.T) {
	cfg := Config{LR: 1, WeightDecay: 0.5, Epochs: 10}.withDefaults()
	srv := newServer([]float64{2}, core.NewBNAccumulator(core.BNAsync, 0.2, nil), cfg, 10)
	srv.apply([]float64{0}, 1)
	// w = 2 - 1*(0 + 0.5*2) = 1
	if srv.w[0] != 1 {
		t.Fatalf("weight decay: %v", srv.w[0])
	}
}

func TestFinalizeTailAverage(t *testing.T) {
	res := Result{Points: []Point{
		{TestErr: 1, TrainErr: 1},
		{TestErr: 0.2, TrainErr: 0.1},
		{TestErr: 0.3, TrainErr: 0.2},
		{TestErr: 0.4, TrainErr: 0.3},
	}}
	out := finalize(res, Config{})
	if math.Abs(out.FinalTestErr-0.3) > 1e-12 {
		t.Fatalf("tail mean test err %v, want 0.3", out.FinalTestErr)
	}
	if math.Abs(out.FinalTrainErr-0.2) > 1e-12 {
		t.Fatalf("tail mean train err %v, want 0.2", out.FinalTrainErr)
	}
}

func TestRunPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Run(Env{})
}

func TestRunPanicsOnUnknownAlgo(t *testing.T) {
	e := tinyEnvSeeded(SGD, 1, 1)
	e.Cfg.Algo = "bogus"
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Run(e)
}

func TestEMAPredictor(t *testing.T) {
	p := newEMAPredictor(0.5)
	for i := 0; i < 50; i++ {
		p.Observe(1.0)
	}
	d := p.PredictDelay(4)
	if math.Abs(d-4) > 0.2 {
		t.Fatalf("EMA flat-series delay %v, want ~4", d)
	}
	if p.PredictDelay(0) != 0 {
		t.Fatal("k=0 must be 0")
	}
	// Decaying series → trend < 0 → k-step sum below k*level.
	q := newEMAPredictor(0.5)
	v := 1.0
	for i := 0; i < 50; i++ {
		q.Observe(v)
		v *= 0.9
	}
	if q.PredictDelay(4) >= 4*q.level {
		t.Fatal("EMA must extrapolate the downward trend")
	}
}

func TestEvaluatorMatchesAccuracy(t *testing.T) {
	e := tinyEnvSeeded(SGD, 1, 1)
	execs := newExecPool(e.Build, 5)
	ev := newEvaluator(execs, 32, seqBackend{})
	net := execs.get().net
	w := slices.Clone(net.State().Values)
	bn := core.NewBNAccumulator(core.BNAsync, 0.2, bnChannels(net))
	errRate := ev.errOn(e.Test, w, bn)
	if errRate < 0 || errRate > 1 {
		t.Fatalf("error rate %v", errRate)
	}
}

// TestReplicaPullInstallsServerState: a pull lands the server's weights in
// every parameter in Params order, and its global BN statistics, a layer's
// channels at a time in BatchNorms order, in every BN layer's running
// statistics.
func TestReplicaPullInstallsServerState(t *testing.T) {
	rep, x, w, bnAcc := benchReplica(convEnvSeeded(ASGD, 1, 2))
	for i := range w {
		w[i] = float64(i)
	}
	for i := range bnAcc.Mean {
		bnAcc.Mean[i], bnAcc.Var[i] = float64(i), float64(-i)
	}
	rep.pull(w, bnAcc)
	x.net.Bind(rep.st)
	off := 0
	for _, p := range x.net.Params() {
		for j, v := range p.Value.Data {
			if v != w[off+j] {
				t.Fatalf("%s[%d] = %v after the pull, want %v", p.Name, j, v, w[off+j])
			}
		}
		off += p.Value.Len()
	}
	off = 0
	for li, bn := range x.net.BatchNorms() {
		if bn.C != bnChannels(x.net)[li] {
			t.Fatalf("BN layer %d has %d channels, the accumulator %d", li, bn.C, bnChannels(x.net)[li])
		}
		for c := range bn.C {
			if bn.RunningMean[c] != bnAcc.Mean[off+c] || bn.RunningVar[c] != bnAcc.Var[off+c] {
				t.Fatalf("BN layer %d channel %d runs (%v, %v) after the pull", li, c, bn.RunningMean[c], bn.RunningVar[c])
			}
		}
		off += bn.C
	}
}

func TestPartitionedModeRuns(t *testing.T) {
	e := tinyEnvSeeded(LCASGD, 4, 8)
	e.Cfg.Partitioned = true
	res := Run(e)
	if len(res.Points) == 0 {
		t.Fatal("partitioned run produced no points")
	}
	if res.FinalTrainErr >= res.Points[0].TrainErr-0.1 {
		t.Fatalf("partitioned training did not learn: %v -> %v",
			res.Points[0].TrainErr, res.FinalTrainErr)
	}
}

func TestPartitionedDiffersFromShared(t *testing.T) {
	shared := Run(tinyEnvSeeded(ASGD, 4, 2))
	e := tinyEnvSeeded(ASGD, 4, 2)
	e.Cfg.Partitioned = true
	part := Run(e)
	same := true
	for i := range shared.Points {
		if shared.Points[i].TestErr != part.Points[i].TestErr {
			same = false
			break
		}
	}
	if same {
		t.Fatal("partitioned mode had no effect")
	}
}

func TestPartitionedShardTooSmallPanics(t *testing.T) {
	e := tinyEnvSeeded(ASGD, 16, 1) // 160 samples / 16 = 10 < batch 20
	e.Cfg.Partitioned = true
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for shard smaller than batch")
		}
	}()
	Run(e)
}
