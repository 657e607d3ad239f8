package core

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"
	"time"

	"lcasgd/internal/nn"
	"lcasgd/internal/rng"
	"lcasgd/internal/snapshot"
	"lcasgd/internal/tensor"
)

func TestIterLogGaps(t *testing.T) {
	l := NewIterLog()
	if g := l.Append(0); g != -1 {
		t.Fatalf("first delivery gap %d, want -1", g)
	}
	l.Append(1)
	l.Append(2)
	if g := l.Append(0); g != 2 {
		t.Fatalf("gap %d, want 2 (workers 1,2 in between)", g)
	}
	if g := l.Append(0); g != 0 {
		t.Fatalf("back-to-back gap %d, want 0", g)
	}
}

// TestIterLogGapPropertyQuick: staleness equals entries between consecutive
// appearances, whatever the arrival pattern.
func TestIterLogGapPropertyQuick(t *testing.T) {
	f := func(seed uint64) bool {
		g := rng.New(seed)
		l := NewIterLog()
		last := map[int]int{}
		for i := 0; i < 200; i++ {
			m := g.Intn(8)
			gap := l.Append(m)
			want := -1
			if prev, ok := last[m]; ok {
				want = i - prev - 1
			}
			if gap != want {
				return false
			}
			last[m] = i
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestLossPredictorTracksDecayingLoss(t *testing.T) {
	p := NewLossPredictorSized(24, rng.New(1))
	loss := 2.0
	for i := 0; i < 400; i++ {
		p.Observe(loss)
		loss *= 0.995
	}
	trace := p.Trace()
	if len(trace) == 0 {
		t.Fatal("no trace recorded")
	}
	// Over the last quarter of the trace the predictions should track the
	// actual values closely.
	tail := trace[3*len(trace)/4:]
	var sumAbs, sumVal float64
	for _, tp := range tail {
		sumAbs += math.Abs(tp.Actual - tp.Predicted)
		sumVal += tp.Actual
	}
	relErr := sumAbs / sumVal
	if relErr > 0.05 {
		t.Fatalf("loss predictor tail relative error %.3f", relErr)
	}
}

func TestLossPredictorPredictDelaySumsK(t *testing.T) {
	p := NewLossPredictorSized(16, rng.New(2))
	for i := 0; i < 100; i++ {
		p.Observe(1.0) // constant series
	}
	d1 := p.PredictDelay(1.0, 1)
	d4 := p.PredictDelay(1.0, 4)
	if d1 <= 0 {
		t.Fatalf("delay prediction %v for constant positive series", d1)
	}
	// Summing 4 future steps of a ~constant series ≈ 4× one step.
	if d4 < 2*d1 || d4 > 6*d1 {
		t.Fatalf("k=4 delay %v not ~4x k=1 delay %v", d4, d1)
	}
	if p.PredictDelay(1.0, 0) != 0 {
		t.Fatal("k=0 must produce zero compensation")
	}
}

func TestLossPredictorOverheadAccounting(t *testing.T) {
	p := NewLossPredictorSized(8, rng.New(3))
	for i := 0; i < 10; i++ {
		p.Observe(1.0)
	}
	if p.Calls != 10 {
		t.Fatalf("calls %d", p.Calls)
	}
	if p.AvgTrainMs() < 0 {
		t.Fatal("negative average train time")
	}
}

// TestPredictorAvgMsIsTrainPlusPredictPerCall pins what Tables 2–3 read:
// the loss predictor's mean covers Observe and the k-step roll-out, the
// step predictor's the whole ObserveAndPredict call (its predict is inside
// TrainTime), and neither is cut to whole microseconds first.
func TestPredictorAvgMsIsTrainPlusPredictPerCall(t *testing.T) {
	lp := &LossPredictor{TrainTime: 1500 * time.Nanosecond, PredictTime: 2*time.Millisecond + 900*time.Nanosecond, Calls: 4}
	if got, want := lp.AvgTrainMs(), 2.0024/4; math.Abs(got-want) > 1e-12 {
		t.Fatalf("loss predictor AvgTrainMs = %v, want %v", got, want)
	}
	sp := &StepPredictor{TrainTime: 3*time.Millisecond + 300*time.Nanosecond, Calls: 2}
	if got, want := sp.AvgTrainMs(), 3.0003/2; math.Abs(got-want) > 1e-12 {
		t.Fatalf("step predictor AvgTrainMs = %v, want %v", got, want)
	}
	if (&LossPredictor{}).AvgTrainMs() != 0 || (&StepPredictor{}).AvgTrainMs() != 0 {
		t.Fatal("no calls must average to 0")
	}
}

func TestStepPredictorColdStart(t *testing.T) {
	p := NewStepPredictorSized(8, 16, rng.New(4))
	k := p.ObserveAndPredict(0, -1, 1, 10)
	if k != 7 {
		t.Fatalf("cold-start prediction %d, want M-1=7", k)
	}
}

func TestStepPredictorLearnsConstantStaleness(t *testing.T) {
	p := NewStepPredictorSized(4, 24, rng.New(5))
	var k int
	for i := 0; i < 300; i++ {
		k = p.ObserveAndPredict(0, 3, 1.0, 10.0)
	}
	if k != 3 {
		t.Fatalf("predicted staleness %d after constant-3 stream", k)
	}
}

func TestStepPredictorClamps(t *testing.T) {
	p := NewStepPredictorSized(4, 8, rng.New(6))
	for i := 0; i < 50; i++ {
		k := p.ObserveAndPredict(1, 3, 1, 10)
		if k < 0 || k > 12 {
			t.Fatalf("prediction %d outside [0, 3M]", k)
		}
	}
}

// TestStepPredictorRestoreRejectsHostileRows: a snapshot's per-worker
// feature rows must name fleet workers in ascending order and have the
// network's input width — a width-1 row or a worker past the fleet used to
// restore cleanly and panic at the next ObserveAndPredict. A real snapshot
// restores and re-emits its exact bytes.
func TestStepPredictorRestoreRejectsHostileRows(t *testing.T) {
	src := NewStepPredictorSized(4, 8, rng.New(7))
	for i := 0; i < 16; i++ {
		src.ObserveAndPredict(i%4, i/4-1, 1, 10)
	}
	restore := func(b []byte) (*StepPredictor, error) {
		dst := NewStepPredictorSized(4, 8, rng.New(8))
		r, err := snapshot.NewReader(b)
		if err != nil {
			t.Fatal(err)
		}
		if dst.Walk(r.Codec()); r.Err() != nil {
			return nil, r.Err()
		}
		return dst, r.Close()
	}

	w := snapshot.NewWriter()
	src.Walk(w.Codec())
	valid := bytes.Clone(w.Bytes())
	dst, err := restore(valid)
	if err != nil {
		t.Fatalf("real snapshot: %v", err)
	}
	w.Reset()
	dst.Walk(w.Codec())
	if !bytes.Equal(w.Bytes(), valid) {
		t.Fatal("restored predictor re-emits different bytes")
	}
	dst.ObserveAndPredict(2, 1, 1, 10)

	type row struct {
		m    int
		feat []float64
	}
	feat := []float64{0.1, 0.2, 0.3}
	for _, tc := range []struct {
		name string
		rows []row
		ok   bool
	}{
		{"fleet rows", []row{{0, feat}, {3, feat}}, true},
		{"width-1 row", []row{{0, feat}, {2, feat[:1]}}, false},
		{"width-4 row", []row{{1, append(feat, 0.4)}}, false},
		{"worker past the fleet", []row{{0, feat}, {99, feat}}, false},
		{"worker at the fleet size", []row{{4, feat}}, false},
		{"negative worker", []row{{-1, feat}}, false},
		{"repeated worker", []row{{1, feat}, {1, feat}}, false},
		{"descending workers", []row{{2, feat}, {1, feat}}, false},
	} {
		// Walk's layout with the feature rows replaced.
		w := snapshot.NewWriter()
		src.net.Walk(w.Codec())
		w.Int(src.workers)
		w.Int(len(tc.rows))
		for _, r := range tc.rows {
			w.Int(r.m)
			w.F64s(r.feat)
		}
		w.F64(src.commScale)
		w.F64(src.compScale)
		w.Int(src.calls)
		walkTrace(w.Codec(), &src.trace)
		p, err := restore(w.Bytes())
		if (err == nil) != tc.ok {
			t.Fatalf("%s: restore error %v, want ok=%v", tc.name, err, tc.ok)
		}
		if tc.ok {
			for _, r := range tc.rows {
				p.ObserveAndPredict(r.m, 1, 1, 10)
			}
		}
	}
}

func TestBNAccumulatorReplaceMode(t *testing.T) {
	bns := []*nn.BatchNorm{nn.NewBatchNorm("a", 2, 1)}
	acc := NewBNAccumulator(BNReplace, 0.2, bns)
	acc.Update([]LayerStats{{Mean: []float64{5, 6}, Var: []float64{2, 3}}})
	mean, vari := acc.Snapshot()
	if mean[0][0] != 5 || vari[0][1] != 3 {
		t.Fatalf("replace mode: %v %v", mean, vari)
	}
	acc.Update([]LayerStats{{Mean: []float64{-1, -1}, Var: []float64{1, 1}}})
	mean, _ = acc.Snapshot()
	if mean[0][0] != -1 {
		t.Fatal("replace mode must overwrite")
	}
}

func TestBNAccumulatorAsyncEMA(t *testing.T) {
	bns := []*nn.BatchNorm{nn.NewBatchNorm("a", 1, 1)}
	acc := NewBNAccumulator(BNAsync, 0.5, bns)
	acc.Update([]LayerStats{{Mean: []float64{4}, Var: []float64{3}}})
	mean, vari := acc.Snapshot()
	if mean[0][0] != 2 { // 0.5*0 + 0.5*4
		t.Fatalf("EMA mean %v", mean[0][0])
	}
	if vari[0][0] != 2 { // 0.5*1 + 0.5*3
		t.Fatalf("EMA var %v", vari[0][0])
	}
}

func TestBNAccumulatorAsyncIsSmoother(t *testing.T) {
	// Feed alternating extreme stats; Async-BN's EMA must end closer to the
	// long-run average than replace-by-latest.
	build := func(mode BNMode) float64 {
		bns := []*nn.BatchNorm{nn.NewBatchNorm("a", 1, 1)}
		acc := NewBNAccumulator(mode, 0.2, bns)
		for i := 0; i < 100; i++ {
			v := 10.0
			if i%2 == 0 {
				v = -10
			}
			acc.Update([]LayerStats{{Mean: []float64{v}, Var: []float64{1}}})
		}
		mean, _ := acc.Snapshot()
		return math.Abs(mean[0][0]) // distance from the true average 0
	}
	if build(BNAsync) >= build(BNReplace) {
		t.Fatal("Async-BN should track the long-run average better than replace")
	}
}

func TestBNAccumulatorApply(t *testing.T) {
	bn := nn.NewBatchNorm("a", 2, 1)
	acc := NewBNAccumulator(BNReplace, 0.2, []*nn.BatchNorm{bn})
	acc.Update([]LayerStats{{Mean: []float64{7, 8}, Var: []float64{4, 5}}})
	acc.Apply([]*nn.BatchNorm{bn})
	m, v := bn.Running()
	if m[0] != 7 || v[1] != 5 {
		t.Fatalf("apply: %v %v", m, v)
	}
}

func TestBNAccumulatorShapePanics(t *testing.T) {
	acc := NewBNAccumulator(BNAsync, 0.2, []*nn.BatchNorm{nn.NewBatchNorm("a", 2, 1)})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	acc.Update([]LayerStats{{Mean: []float64{1}, Var: []float64{1}}})
}

func TestBNModeString(t *testing.T) {
	if BNReplace.String() != "BN" || BNAsync.String() != "Async-BN" {
		t.Fatal("mode names must match the paper's Table 1 columns")
	}
}

func TestCompensationScaleNeutralCases(t *testing.T) {
	if CompensationScale(1, 0.5, 0, 1) != 1 {
		t.Fatal("k=0 must be neutral")
	}
	if CompensationScale(1, 0.5, 3, 0) != 1 {
		t.Fatal("lambda=0 must be neutral")
	}
	if CompensationScale(0, 0.5, 3, 1) != 1 {
		t.Fatal("non-positive loss must be neutral")
	}
}

func TestCompensationScaleDampsWhenFutureLower(t *testing.T) {
	// Mean predicted future loss 0.8 < current 1.0 -> damping.
	s := CompensationScale(1.0, 0.8*4, 4, 1)
	if s >= 1 {
		t.Fatalf("scale %v, want < 1", s)
	}
	// Identical future -> exactly neutral.
	s = CompensationScale(1.0, 1.0*4, 4, 1)
	if math.Abs(s-1) > 1e-12 {
		t.Fatalf("scale %v, want 1", s)
	}
	// Rising predicted loss -> clamped at neutral (damp-only policy): an
	// upward forecast must never amplify a stale gradient.
	s = CompensationScale(1.0, 1.5*4, 4, 1)
	if s != MaxScale {
		t.Fatalf("scale %v, want clamp at MaxScale=%v", s, MaxScale)
	}
}

func TestCompensationScaleMonotoneInFuture(t *testing.T) {
	prev := math.Inf(-1)
	for _, f := range []float64{0.2, 0.5, 0.8, 1.0, 1.2} {
		s := CompensationScale(1.0, f*3, 3, 1)
		if s < prev {
			t.Fatal("scale must be monotone in predicted future loss")
		}
		prev = s
	}
}

func TestCompensationScaleClamped(t *testing.T) {
	if s := CompensationScale(1.0, 0, 5, 10); s != MinScale {
		t.Fatalf("scale %v, want clamp at %v", s, MinScale)
	}
	if s := CompensationScale(0.01, 100, 1, 10); s != MaxScale {
		t.Fatalf("scale %v, want clamp at %v", s, MaxScale)
	}
}

func TestCompensationScaleSumGrowsWithK(t *testing.T) {
	// The un-normalized variant inflates with k even for a flat series —
	// the pathology the normalized version avoids (ablation).
	flat := CompensationScaleSum(1.0, 1.0*8, 1)
	if flat != MaxScale {
		t.Fatalf("sum variant at k=8 flat series: %v, expected clamp at max", flat)
	}
	norm := CompensationScale(1.0, 1.0*8, 8, 1)
	if math.Abs(norm-1) > 1e-12 {
		t.Fatalf("normalized variant should be neutral on flat series, got %v", norm)
	}
}

func TestCompensationScalePropertyQuick(t *testing.T) {
	f := func(lRaw, dRaw uint16, kRaw uint8) bool {
		lossM := 0.01 + float64(lRaw)/1000
		delay := float64(dRaw) / 1000
		k := int(kRaw%16) + 1
		s := CompensationScale(lossM, delay, k, 1)
		return s >= MinScale && s <= MaxScale
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestCollectStatsIntoRefreshesInPlace: the first call sizes the view from
// the layers, every later one rewrites the same slices with the statistics
// of the latest forward.
func TestCollectStatsIntoRefreshesInPlace(t *testing.T) {
	bn1 := nn.NewBatchNorm("a", 3, 1)
	bn2 := nn.NewBatchNorm("b", 2, 1)
	bns := []*nn.BatchNorm{bn1, bn2}
	check := func(dst []LayerStats) {
		t.Helper()
		for li, bn := range bns {
			mean, vari := make([]float64, bn.C), make([]float64, bn.C)
			bn.ReadBatchStats(mean, vari)
			for c := range mean {
				if dst[li].Mean[c] != mean[c] || dst[li].Var[c] != vari[c] {
					t.Fatalf("layer %d channel %d stats differ", li, c)
				}
			}
		}
	}
	bn1.Forward(mkBatch(4, 3, 7), true)
	bn2.Forward(mkBatch(4, 2, 8), true)
	dst := CollectStatsInto(nil, bns)
	check(dst)
	m0 := dst[0].Mean
	old := m0[0]
	bn1.Forward(mkBatch(4, 3, 9), true)
	dst = CollectStatsInto(dst, bns)
	if &dst[0].Mean[0] != &m0[0] {
		t.Fatal("CollectStatsInto reallocated a matching destination")
	}
	if dst[0].Mean[0] == old {
		t.Fatal("CollectStatsInto did not refresh values")
	}
	check(dst)
}

func mkBatch(n, c int, seed uint64) *tensor.Tensor {
	x := tensor.New(n, c)
	rng.New(seed).FillNormal(x.Data, 1)
	return x
}

// TestPredictorSteadyStateAllocs pins the per-iteration predictor calls:
// PredictDelay and the step predictor's forecast path allocate nothing in
// steady state (the observation paths only pay the amortized trace append).
func TestPredictorSteadyStateAllocs(t *testing.T) {
	lp := NewLossPredictorSized(8, rng.New(40))
	for i := 0; i < 20; i++ {
		lp.Observe(1.0 / float64(i+1))
	}
	if a := testing.AllocsPerRun(20, func() { lp.PredictDelay(0.05, 5) }); a != 0 {
		t.Fatalf("steady-state PredictDelay allocates %v times, want 0", a)
	}
}
