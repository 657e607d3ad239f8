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
	l := NewIterLog(3)
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
		l := NewIterLog(8)
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

// TestLossPredictorStartJoinMatchesPredictDelay runs one loss series
// through two predictors of the same seed: one calls PredictDelay after
// each Observe, the other StartDelay, runs the job on a goroutine while it
// keeps training on the next losses, and joins it two observations later.
// Every ℓ_delay and the trace must agree bit for bit, and the joined jobs'
// time lands in PredictTime.
func TestLossPredictorStartJoinMatchesPredictDelay(t *testing.T) {
	a, b := NewLossPredictorSized(8, rng.New(5)), NewLossPredictorSized(8, rng.New(5))
	var slots [3]Rollout
	type inflight struct {
		done chan Delay
		want float64
	}
	var pending []inflight
	join := func() {
		f := pending[0]
		pending = pending[1:]
		if got := b.JoinDelay(<-f.done); math.Float64bits(got) != math.Float64bits(f.want) {
			t.Fatalf("joined delay %v, PredictDelay gives %v", got, f.want)
		}
	}
	for i := 0; i < 60; i++ {
		loss := 1/float64(i+1) + 0.1*math.Sin(float64(i))
		k := []int{0, 1, 5, 200}[i%4]
		a.Observe(loss)
		want := a.PredictDelay(loss, k)
		b.Observe(loss)
		if len(pending) == len(slots)-1 {
			join()
		}
		job, done := b.StartDelay(&slots[i%len(slots)], k), make(chan Delay, 1)
		go func() { done <- job() }()
		pending = append(pending, inflight{done, want})
	}
	for len(pending) > 0 {
		join()
	}
	at, bt := a.Trace(), b.Trace()
	if len(at) != len(bt) {
		t.Fatalf("trace lengths %d and %d", len(at), len(bt))
	}
	for i := range at {
		if math.Float64bits(at[i].Predicted) != math.Float64bits(bt[i].Predicted) {
			t.Fatalf("trace point %d: forecast %v, PredictDelay's predictor has %v", i, bt[i].Predicted, at[i].Predicted)
		}
	}
	if b.PredictTime <= 0 {
		t.Fatal("StartDelay/JoinDelay charged no roll-out time")
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
// feature vector and seen-list must be the fleet's length — a shorter one
// would restore cleanly and panic at the next ObserveAndPredict. A real
// snapshot restores and re-emits its exact bytes.
func TestStepPredictorRestoreRejectsHostileRows(t *testing.T) {
	src := NewStepPredictorSized(4, 8, rng.New(7))
	for i := 0; i < 16; i++ { // worker 3 stays unseen
		src.ObserveAndPredict(i%3, i/3-1, 1, 10)
	}
	restore := func(b []byte) (*StepPredictor, error) {
		dst := NewStepPredictorSized(4, 8, rng.New(8))
		r := snapshot.NewReader(b)
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
	dst.ObserveAndPredict(3, 1, 1, 10)

	seen := []bool{true, false, true, true}
	for _, tc := range []struct {
		name string
		feat []float64
		seen []bool
		ok   bool
	}{
		{"fleet lengths", make([]float64, 12), seen, true},
		{"short feature vector", make([]float64, 11), seen, false},
		{"long feature vector", make([]float64, 15), seen, false},
		{"short seen-list", make([]float64, 12), seen[:3], false},
		{"long seen-list", make([]float64, 12), append(seen, true), false},
	} {
		// Walk's layout with the per-worker vectors replaced.
		w := snapshot.NewWriter()
		src.net.Walk(w.Codec())
		w.F64s(tc.feat)
		w.Int(len(tc.seen))
		for _, b := range tc.seen {
			w.Bool(b)
		}
		w.F64(src.commScale)
		w.F64(src.compScale)
		walkTrace(w.Codec(), &src.trace, 0)
		p, err := restore(w.Bytes())
		if (err == nil) != tc.ok {
			t.Fatalf("%s: restore error %v, want ok=%v", tc.name, err, tc.ok)
		}
		if tc.ok {
			for m := range 4 {
				p.ObserveAndPredict(m, 1, 1, 10)
			}
		}
	}
}

func TestBNAccumulatorReplaceMode(t *testing.T) {
	acc := NewBNAccumulator(BNReplace, 0.2, []int{2})
	acc.Update([]float64{5, 6}, []float64{2, 3})
	if acc.Mean[0] != 5 || acc.Var[1] != 3 {
		t.Fatalf("replace mode: %v %v", acc.Mean, acc.Var)
	}
	acc.Update([]float64{-1, -1}, []float64{1, 1})
	if acc.Mean[0] != -1 {
		t.Fatal("replace mode must overwrite")
	}
}

func TestBNAccumulatorAsyncEMA(t *testing.T) {
	acc := NewBNAccumulator(BNAsync, 0.5, []int{1})
	acc.Update([]float64{4}, []float64{3})
	if acc.Mean[0] != 2 { // 0.5*0 + 0.5*4
		t.Fatalf("EMA mean %v", acc.Mean[0])
	}
	if acc.Var[0] != 2 { // 0.5*1 + 0.5*3
		t.Fatalf("EMA var %v", acc.Var[0])
	}
}

func TestBNAccumulatorAsyncIsSmoother(t *testing.T) {
	// Feed alternating extreme stats; Async-BN's EMA must end closer to the
	// long-run average than replace-by-latest.
	build := func(mode BNMode) float64 {
		acc := NewBNAccumulator(mode, 0.2, []int{1})
		for i := 0; i < 100; i++ {
			v := 10.0
			if i%2 == 0 {
				v = -10
			}
			acc.Update([]float64{v}, []float64{1})
		}
		return math.Abs(acc.Mean[0]) // distance from the true average 0
	}
	if build(BNAsync) >= build(BNReplace) {
		t.Fatal("Async-BN should track the long-run average better than replace")
	}
}

func TestBNAccumulatorShapePanics(t *testing.T) {
	acc := NewBNAccumulator(BNAsync, 0.2, []int{2})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	acc.Update([]float64{1}, []float64{1})
}

// TestCollectStatsIntoRefreshesInPlace: a packed net's State holds every
// BN layer's latest batch statistics in BN order, sized from the layers;
// every training forward rewrites the same slices, and the accumulator
// built from the layers' channel counts takes them as reported.
func TestCollectStatsIntoRefreshesInPlace(t *testing.T) {
	bnA, bnB := nn.NewBatchNorm("a", 3, 1), nn.NewBatchNorm("b", 3, 1)
	net := nn.NewSequential(bnA, bnB)
	st := net.State()
	var chans []int
	for _, bn := range net.BatchNorms() {
		chans = append(chans, bn.C)
	}
	acc := NewBNAccumulator(BNReplace, 0.2, chans)
	if len(st.BatchMean) != len(acc.Mean) || len(st.BatchVar) != len(acc.Var) {
		t.Fatalf("State has %d/%d batch statistics, accumulator %d", len(st.BatchMean), len(st.BatchVar), len(acc.Mean))
	}
	// colStats is the biased per-column mean and variance of an [n, c] batch.
	colStats := func(x []float64, n, c int) (mean, vari []float64) {
		mean, vari = make([]float64, c), make([]float64, c)
		for i := 0; i < n*c; i++ {
			mean[i%c] += x[i] / float64(n)
		}
		for i := 0; i < n*c; i++ {
			d := x[i] - mean[i%c]
			vari[i%c] += d * d / float64(n)
		}
		return mean, vari
	}
	check := func(x *tensor.Tensor) {
		t.Helper()
		n, c := x.Shape[0], x.Shape[1]
		meanA, varA := colStats(x.Data, n, c)
		y := make([]float64, n*c) // bnA's output: γ = 1, β = 0
		for i, v := range x.Data {
			y[i] = (v - meanA[i%c]) / math.Sqrt(varA[i%c]+nn.BNEpsilon)
		}
		meanB, varB := colStats(y, n, c)
		want := [][]float64{append(meanA, meanB...), append(varA, varB...)}
		for k, got := range [][]float64{st.BatchMean, st.BatchVar} {
			for i := range got {
				if math.Abs(got[i]-want[k][i]) > 1e-9 {
					t.Fatalf("statistic %d channel %d: State has %v, batch gives %v", k, i, got[i], want[k][i])
				}
			}
		}
	}
	x := mkBatch(4, 3, 7)
	net.Forward(x, true)
	check(x)
	m0 := &st.BatchMean[0]
	old := st.BatchMean[0]
	x = mkBatch(4, 3, 9)
	net.Forward(x, true)
	if &st.BatchMean[0] != m0 {
		t.Fatal("the batch statistics moved")
	}
	if st.BatchMean[0] == old {
		t.Fatal("a training forward did not refresh the batch statistics")
	}
	check(x)
	acc.Update(st.BatchMean, st.BatchVar)
	for i := range acc.Mean {
		if acc.Mean[i] != st.BatchMean[i] || acc.Var[i] != st.BatchVar[i] {
			t.Fatalf("channel %d: accumulator took %v/%v, State reports %v/%v", i, acc.Mean[i], acc.Var[i], st.BatchMean[i], st.BatchVar[i])
		}
	}
}

func mkBatch(n, c int, seed uint64) *tensor.Tensor {
	x := tensor.New(n, c)
	rng.New(seed).FillNormal(x.Data, 1)
	return x
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
