package lstm

import (
	"fmt"
	"math"
	"testing"

	"lcasgd/internal/rng"
	"lcasgd/internal/snapshot"
	"lcasgd/internal/tensor"
)

// cellLoss runs one forward step and returns Σh + Σc, the scalar whose
// parameter gradient the finite-difference tests verify. Step updates the
// state in place, so it runs on a scratch copy of prev.
func cellLoss(c *Cell, x []float64, prev State) float64 {
	next := prev.Clone()
	c.Step(x, next, nil)
	s := 0.0
	for _, v := range next.H {
		s += v
	}
	for _, v := range next.C {
		s += v
	}
	return s
}

func TestCellBackwardMatchesFiniteDiff(t *testing.T) {
	g := rng.New(1)
	c := NewCell(3, 4, g)
	x := []float64{0.5, -0.2, 0.8}
	prev := NewState(4)
	g.FillNormal(prev.H, 0.5)
	g.FillNormal(prev.C, 0.5)

	scratch := prev.Clone()
	cache := newStepCache(3, 4)
	c.Step(x, scratch, cache)
	c.ZeroGrad()
	ones := []float64{1, 1, 1, 1}
	dx := make([]float64, 3)
	dhPrev := make([]float64, 4)
	dcPrev := make([]float64, 4)
	c.Backward(ones, ones, cache, dx, dhPrev, dcPrev)

	const eps = 1e-6
	check := func(name string, w []float64, dw []float64) {
		for i := range w {
			orig := w[i]
			w[i] = orig + eps
			lp := cellLoss(c, x, prev)
			w[i] = orig - eps
			lm := cellLoss(c, x, prev)
			w[i] = orig
			num := (lp - lm) / (2 * eps)
			if math.Abs(num-dw[i]) > 1e-5*(1+math.Abs(num)) {
				t.Fatalf("%s[%d]: analytic %g numeric %g", name, i, dw[i], num)
			}
		}
	}
	check("W", c.W, c.dW)
	check("B", c.B, c.dB)

	// Input and previous-state gradients.
	for i := range x {
		orig := x[i]
		x[i] = orig + eps
		lp := cellLoss(c, x, prev)
		x[i] = orig - eps
		lm := cellLoss(c, x, prev)
		x[i] = orig
		num := (lp - lm) / (2 * eps)
		if math.Abs(num-dx[i]) > 1e-5*(1+math.Abs(num)) {
			t.Fatalf("dx[%d]: analytic %g numeric %g", i, dx[i], num)
		}
	}
	for i := range prev.H {
		orig := prev.H[i]
		prev.H[i] = orig + eps
		lp := cellLoss(c, x, prev)
		prev.H[i] = orig - eps
		lm := cellLoss(c, x, prev)
		prev.H[i] = orig
		num := (lp - lm) / (2 * eps)
		if math.Abs(num-dhPrev[i]) > 1e-5*(1+math.Abs(num)) {
			t.Fatalf("dhPrev[%d]: analytic %g numeric %g", i, dhPrev[i], num)
		}
	}
	for i := range prev.C {
		orig := prev.C[i]
		prev.C[i] = orig + eps
		lp := cellLoss(c, x, prev)
		prev.C[i] = orig - eps
		lm := cellLoss(c, x, prev)
		prev.C[i] = orig
		num := (lp - lm) / (2 * eps)
		if math.Abs(num-dcPrev[i]) > 1e-5*(1+math.Abs(num)) {
			t.Fatalf("dcPrev[%d]: analytic %g numeric %g", i, dcPrev[i], num)
		}
	}
}

// serialWeights returns c's weights in setSerialWeights order: the input
// weights [4H, X], then the hidden weights [4H, H], both gate-row major —
// the transposes of W's two row blocks.
func serialWeights(c *Cell) (wx, wh []float64) {
	n4, split := numGates*c.H, c.X*numGates*c.H
	return tensor.Transpose(tensor.FromSlice(c.W[:split], c.X, n4)).Data,
		tensor.Transpose(tensor.FromSlice(c.W[split:], c.H, n4)).Data
}

// TestCellSerialWeightOrder pins the seed stream's weight order — input
// weights [4H, X] then hidden weights [4H, H], gate-row major — against the
// packed in-memory W [(X+H), 4H], both ways: the init draw depends on it.
func TestCellSerialWeightOrder(t *testing.T) {
	const x, h = 2, 3
	c := NewCell(x, h, rng.New(1))
	n4 := numGates * h
	for j := 0; j < x+h; j++ {
		for r := 0; r < n4; r++ {
			c.W[j*n4+r] = float64(100*j + r)
		}
	}
	wx, wh := serialWeights(c)
	for r := 0; r < n4; r++ {
		for j := 0; j < x; j++ {
			if got, want := wx[r*x+j], float64(100*j+r); got != want {
				t.Fatalf("wx[%d,%d] = %v, want %v", r, j, got, want)
			}
		}
		for j := 0; j < h; j++ {
			if got, want := wh[r*h+j], float64(100*(x+j)+r); got != want {
				t.Fatalf("wh[%d,%d] = %v, want %v", r, j, got, want)
			}
		}
	}
	packed := append([]float64(nil), c.W...)
	zero(c.W)
	c.setSerialWeights(wx, wh)
	for i := range packed {
		if c.W[i] != packed[i] {
			t.Fatalf("W[%d] = %v after the round trip, want %v", i, c.W[i], packed[i])
		}
	}
}

// TestCellStepBitsMatchRowLoops compares Step's gate pre-activations
// bitwise with the row-by-row definition: pre[r] = B[r] + (Σ_j Wx[r,j]·x[j]
// + Σ_j Wh[r,j]·h[j]), one chain per gate row, j ascending from +0. Widths
// cover the kernel's 16-wide, 4-wide and masked column blocks.
func TestCellStepBitsMatchRowLoops(t *testing.T) {
	g := rng.New(5)
	for _, dims := range [][2]int{{1, 8}, {3, 5}, {8, 8}, {1, 64}, {7, 1}} {
		x, h := dims[0], dims[1]
		c := NewCell(x, h, g)
		g.FillNormal(c.B, 0.3)
		in := make([]float64, x)
		g.FillNormal(in, 1)
		in[0] = 0 // an exact zero among the inputs
		s := NewState(h)
		g.FillNormal(s.H, 0.5)
		g.FillNormal(s.C, 0.5)
		wx, wh := serialWeights(c)
		want := make([]float64, numGates*h)
		for r := range want {
			sum := 0.0
			for j, xv := range in {
				sum = math.FMA(wx[r*x+j], xv, sum)
			}
			for j, hv := range s.H {
				sum = math.FMA(wh[r*h+j], hv, sum)
			}
			want[r] = c.B[r] + sum
		}
		c.Step(in, s, nil)
		for r := range want {
			if math.Float64bits(c.pre[r]) != math.Float64bits(want[r]) {
				t.Fatalf("X=%d H=%d: pre[%d] = %x, row loop gives %x", x, h, r, c.pre[r], want[r])
			}
		}
	}
}

// TestCellStepBitsMatchScalarGates runs Step against the per-unit scalar
// definition of the cell — every gate through math, c = f·C + i·g, h =
// o·tanh(c) — and compares the new state and every cache field bitwise,
// over several steps and at widths that give the gates full groups, scalar
// tails and both. A few biases are pushed out of the vector fast domain so
// whole groups fall back to math inside Step.
func TestCellStepBitsMatchScalarGates(t *testing.T) {
	g := rng.New(17)
	sig := func(v float64) float64 { return 1 / (1 + math.Exp(-v)) }
	for _, h := range []int{1, 3, 4, 5, 8, 24, 32, 64} {
		for _, x := range []int{1, 3, h} {
			c := NewCell(x, h, g)
			g.FillNormal(c.B, 2)
			c.B[gateI*h] = -800    // sigmoid: exp(800) is outside the fast domain
			c.B[gateO*h+h-1] = 750 // sigmoid: exp(-750) too
			c.B[gateG*h+h/2] = 50  // tanh past MAXLOG/2
			c.B[gateF*h+h-1] = math.Nextafter(0.625, 0)
			s, ref := NewState(h), NewState(h)
			g.FillNormal(s.C, 1)
			copy(ref.C, s.C)
			in := make([]float64, x)
			cache, nilState := newStepCache(x, h), NewState(h)
			for step := 0; step < 4; step++ {
				g.FillNormal(in, 1.5)
				copy(nilState.H, s.H)
				copy(nilState.C, s.C)
				wx, wh := serialWeights(c)
				pre := make([]float64, numGates*h)
				for r := range pre {
					sum := 0.0
					for j, xv := range in {
						sum = math.FMA(wx[r*x+j], xv, sum)
					}
					for j, hv := range ref.H {
						sum = math.FMA(wh[r*h+j], hv, sum)
					}
					pre[r] = c.B[r] + sum
				}
				want := newStepCache(x, h)
				copy(want.x, in)
				copy(want.hPrev, ref.H)
				copy(want.cPrev, ref.C)
				for j := 0; j < h; j++ {
					iv, fv := sig(pre[gateI*h+j]), sig(pre[gateF*h+j])
					gv, ov := math.Tanh(pre[gateG*h+j]), sig(pre[gateO*h+j])
					cv := fv*ref.C[j] + iv*gv
					tc := math.Tanh(cv)
					want.i[j], want.f[j], want.g[j], want.o[j], want.c[j], want.tanhC[j] = iv, fv, gv, ov, cv, tc
					ref.C[j], ref.H[j] = cv, ov*tc
				}
				c.Step(in, s, cache)
				c.Step(in, nilState, nil)
				for name, pair := range map[string][2][]float64{
					"H": {s.H, ref.H}, "C": {s.C, ref.C}, "nil-cache H": {nilState.H, ref.H}, "nil-cache C": {nilState.C, ref.C},
					"x": {cache.x, want.x}, "hPrev": {cache.hPrev, want.hPrev}, "cPrev": {cache.cPrev, want.cPrev},
					"i": {cache.i, want.i}, "f": {cache.f, want.f}, "g": {cache.g, want.g}, "o": {cache.o, want.o},
					"c": {cache.c, want.c}, "tanhC": {cache.tanhC, want.tanhC},
				} {
					for j := range pair[1] {
						if math.Float64bits(pair[0][j]) != math.Float64bits(pair[1][j]) {
							t.Fatalf("X=%d H=%d step %d: %s[%d] = %x, scalar gives %x", x, h, step, name, j, pair[0][j], pair[1][j])
						}
					}
				}
			}
		}
	}
}

func TestCellForgetBiasInit(t *testing.T) {
	c := NewCell(1, 3, rng.New(2))
	for j := 0; j < 3; j++ {
		if c.B[gateF*3+j] != 1 {
			t.Fatal("forget-gate bias must initialize to 1")
		}
		if c.B[gateI*3+j] != 0 {
			t.Fatal("other biases must initialize to 0")
		}
	}
}

func TestCellInputSizePanic(t *testing.T) {
	c := NewCell(2, 3, rng.New(3))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.Step([]float64{1}, NewState(3), nil)
}

func TestNetworkLearnsConstant(t *testing.T) {
	g := rng.New(4)
	n := NewNetwork(1, []int{8}, g)
	n.LR = 0.1
	var loss float64
	for i := 0; i < 300; i++ {
		loss = n.TrainStep([]float64{0.5}, 0.7)
	}
	if loss > 1e-3 {
		t.Fatalf("did not fit constant: loss %v", loss)
	}
	if math.Abs(n.Predict([]float64{0.5})-0.7) > 0.05 {
		t.Fatalf("prediction %v, want ~0.7", n.Predict([]float64{0.5}))
	}
}

func TestNetworkLearnsDecayingSeries(t *testing.T) {
	// The loss predictor's real job: track a decaying loss curve online.
	g := rng.New(5)
	n := NewNetwork(1, []int{16, 16}, g)
	n.LR = 0.05
	val := 1.0
	var lastLoss float64
	for i := 0; i < 400; i++ {
		next := val * 0.99
		lastLoss = n.TrainStep([]float64{val}, next)
		val = next
	}
	if lastLoss > 5e-3 {
		t.Fatalf("online loss on decaying series: %v", lastLoss)
	}
	pred := n.Predict([]float64{val})
	if math.Abs(pred-val*0.99) > 0.05 {
		t.Fatalf("one-step prediction %v, want ~%v", pred, val*0.99)
	}
}

func TestNetworkWindowBounded(t *testing.T) {
	n := NewNetwork(1, []int{4}, rng.New(6))
	n.Window = 5
	for i := 0; i < 20; i++ {
		n.Observe([]float64{float64(i)}, 0)
	}
	if n.count != 5 {
		t.Fatalf("window length %d, want 5", n.count)
	}
}

func TestPredictAheadLengthAndFeedback(t *testing.T) {
	n := NewNetwork(1, []int{4}, rng.New(7))
	for i := 0; i < 8; i++ {
		n.Observe([]float64{0.1}, 0.1)
	}
	fed := 0
	outs := n.PredictAhead([]float64{0.1}, 4, func(out float64) []float64 {
		fed++
		return []float64{out}
	})
	if len(outs) != 4 {
		t.Fatalf("PredictAhead returned %d values, want 4", len(outs))
	}
	if fed != 3 {
		t.Fatalf("feedback called %d times, want 3", fed)
	}
	if n.PredictAhead([]float64{0.1}, 0, nil) != nil {
		t.Fatal("k=0 must return nil")
	}
}

func TestPredictAheadTracksDecay(t *testing.T) {
	g := rng.New(8)
	n := NewNetwork(1, []int{16, 16}, g)
	n.LR = 0.05
	val := 1.0
	for i := 0; i < 600; i++ {
		next := val * 0.995
		n.TrainStep([]float64{val}, next)
		val = next
	}
	outs := n.PredictAhead([]float64{val}, 5, func(o float64) []float64 { return []float64{o} })
	// Multi-step predictions of a decaying series should stay near the
	// series and be (weakly) decreasing in trend.
	for i, o := range outs {
		expected := val * math.Pow(0.995, float64(i+1))
		if math.Abs(o-expected) > 0.1 {
			t.Fatalf("step %d prediction %v, expected ~%v", i, o, expected)
		}
	}
}

func TestMultivariateInput(t *testing.T) {
	// The step predictor consumes 3 features; check a 3-input network
	// learns a simple function of its inputs online.
	g := rng.New(9)
	n := NewNetwork(3, []int{12}, g)
	n.LR = 0.05
	r := rng.New(10)
	var loss float64
	for i := 0; i < 800; i++ {
		a, b := r.Float64(), r.Float64()
		x := []float64{a, b, 0.5}
		loss = n.TrainStep(x, 0.5*a+0.3*b)
	}
	if loss > 0.05 {
		t.Fatalf("multivariate online loss %v", loss)
	}
}

func TestNewNetworkPanicsWithoutHidden(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewNetwork(1, nil, rng.New(1))
}

func TestTrainingIsDeterministic(t *testing.T) {
	build := func() *Network {
		n := NewNetwork(1, []int{8}, rng.New(42))
		for i := 0; i < 50; i++ {
			n.TrainStep([]float64{float64(i % 5)}, float64((i+1)%5))
		}
		return n
	}
	a, b := build(), build()
	pa, pb := a.Predict([]float64{2}), b.Predict([]float64{2})
	if pa != pb {
		t.Fatalf("identical seeds diverged: %v vs %v", pa, pb)
	}
}

// TestTrainPredictZeroAllocSteadyState pins the predictor substrate's hot
// calls — online TrainStep, Predict and PredictAhead — to zero heap
// allocations once the window and scratch buffers are warm. These run on
// the parameter server once per worker iteration, and their REAL measured
// wall times feed Tables 2–3, so allocation noise here distorts a paper
// artifact.
func TestTrainPredictZeroAllocSteadyState(t *testing.T) {
	n := NewNetwork(1, []int{16, 16}, rng.New(30))
	in := []float64{0.5}
	fb := []float64{0}
	feedback := func(o float64) []float64 { fb[0] = o; return fb }
	for i := 0; i < 20; i++ { // fill the window, warm every scratch buffer
		n.TrainStep(in, 0.4)
		n.Predict(in)
		n.PredictAhead(in, 5, feedback)
	}
	if a := testing.AllocsPerRun(20, func() { n.TrainStep(in, 0.4) }); a != 0 {
		t.Fatalf("steady-state TrainStep allocates %v times, want 0", a)
	}
	if a := testing.AllocsPerRun(20, func() { n.Predict(in) }); a != 0 {
		t.Fatalf("steady-state Predict allocates %v times, want 0", a)
	}
	if a := testing.AllocsPerRun(20, func() { n.PredictAhead(in, 5, feedback) }); a != 0 {
		t.Fatalf("steady-state PredictAhead allocates %v times, want 0", a)
	}
}

func BenchmarkTrainStepH64(b *testing.B) {
	n := NewNetwork(1, []int{64, 64}, rng.New(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.TrainStep([]float64{0.5}, 0.4)
	}
}

// BenchmarkPredictAhead rolls a full-window two-layer loss-predictor
// network out k steps at the shapes the workloads run: H = 8 at k = 1023
// (fleet_scale, M = 1024), H = 24 at k = 3 (the quick profiles' M = 4) and
// the paper's H = 64 at k = 8. Those networks are fresh and never settle;
// H8_k1023_saturated is the fleet shape with every gate saturated
// (rolloutNet), so most of its roll-out runs on the absorbed update.
func BenchmarkPredictAhead(b *testing.B) {
	for _, sz := range []struct {
		h, k      int
		saturated bool
	}{{8, 1023, false}, {8, 1023, true}, {24, 3, false}, {64, 8, false}} {
		name := fmt.Sprintf("H%d_k%d", sz.h, sz.k)
		if sz.saturated {
			name += "_saturated"
		}
		b.Run(name, func(b *testing.B) {
			var n *Network
			if sz.saturated {
				n = rolloutNet(1, 1, []int{sz.h, sz.h}, biasSaturated)
			} else {
				n = NewNetwork(1, []int{sz.h, sz.h}, rng.New(1))
				for i := 0; i < n.Window; i++ {
					n.Observe([]float64{0.5}, 0.4)
				}
			}
			in, fb := []float64{0.5}, []float64{0}
			feedback := func(o float64) []float64 { fb[0] = o; return fb }
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n.PredictAhead(in, sz.k, feedback)
			}
		})
	}
}

// BenchmarkCellStep is one prediction-path Step, the roll-out's unit of
// work: hidden-to-hidden cells (H8, H24) and the roll-out's first layer,
// which takes the one-wide fed-back prediction (X1_H8).
func BenchmarkCellStep(b *testing.B) {
	for _, sz := range []struct {
		name string
		x, h int
	}{{"H8", 8, 8}, {"H24", 24, 24}, {"X1_H8", 1, 8}} {
		b.Run(sz.name, func(b *testing.B) {
			g := rng.New(1)
			c := NewCell(sz.x, sz.h, g)
			s := NewState(sz.h)
			in := make([]float64, sz.x)
			g.FillNormal(in, 1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Step(in, s, nil)
			}
		})
	}
}

// TestNetworkSnapshotRoundTrip pins the predictor-resume contract: a
// network restored from a snapshot continues training and predicting
// bit-identically to the network that wrote it.
func TestNetworkSnapshotRoundTrip(t *testing.T) {
	build := func() *Network {
		n := NewNetwork(2, []int{6, 6}, rng.New(42))
		n.Window = 5
		n.LR = 0.1
		return n
	}
	a := build()
	in := func(i int) []float64 { return []float64{float64(i) * 0.1, float64(i%3) - 1} }
	for i := 0; i < 9; i++ {
		a.TrainStep(in(i), float64(i%4)*0.25)
	}

	w := snapshot.NewWriter()
	a.Walk(w.Codec())
	b := build() // fresh weights, fresh window — all overwritten by restore
	r := snapshot.NewReader(w.Bytes())
	if b.Walk(r.Codec()); r.Err() != nil {
		t.Fatal(r.Err())
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	// Both copies must now evolve identically, bit for bit.
	for i := 9; i < 20; i++ {
		la := a.TrainStep(in(i), float64(i%4)*0.25)
		lb := b.TrainStep(in(i), float64(i%4)*0.25)
		if la != lb {
			t.Fatalf("step %d: window loss diverged %x vs %x", i, la, lb)
		}
		probe := []float64{0.5, -0.5}
		if pa, pb := a.Predict(probe), b.Predict(probe); pa != pb {
			t.Fatalf("step %d: prediction diverged %x vs %x", i, pa, pb)
		}
	}
}

// TestNetworkRestoreRejectsShapeMismatch ensures a snapshot cannot be
// loaded into a different architecture.
func TestNetworkRestoreRejectsShapeMismatch(t *testing.T) {
	a := NewNetwork(2, []int{6, 6}, rng.New(42))
	a.TrainStep([]float64{1, 2}, 0.5)
	w := snapshot.NewWriter()
	a.Walk(w.Codec())
	b := NewNetwork(2, []int{4, 4}, rng.New(42))
	r := snapshot.NewReader(w.Bytes())
	if b.Walk(r.Codec()); r.Err() == nil {
		t.Fatal("shape mismatch accepted")
	}
}
