package nn

import (
	"math"
	"testing"

	"lcasgd/internal/rng"
	"lcasgd/internal/tensor"
)

func TestDenseForwardKnown(t *testing.T) {
	g := rng.New(1)
	d := NewDense("fc", 2, 2, g)
	copy(d.W.Value.Data, []float64{1, 2, 3, 4}) // W = [[1,2],[3,4]]
	copy(d.B.Value.Data, []float64{10, 20})
	x := tensor.FromSlice([]float64{1, 1}, 1, 2)
	y := d.Forward(x, true)
	if y.Data[0] != 14 || y.Data[1] != 26 {
		t.Fatalf("dense forward: %v", y.Data)
	}
}

func TestDenseShapePanic(t *testing.T) {
	g := rng.New(1)
	d := NewDense("fc", 3, 2, g)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on wrong input width")
		}
	}()
	d.Forward(tensor.New(1, 4), true)
}

func TestDenseGradCheck(t *testing.T) {
	g := rng.New(2)
	net := NewSequential(
		NewDense("fc1", 5, 7, g),
		NewReLU(7),
		NewDense("fc2", 7, 3, g),
	)
	x := tensor.New(4, 5)
	g.FillNormal(x.Data, 1)
	labels := []int{0, 2, 1, 2}
	var ce SoftmaxCrossEntropy
	loss := func() float64 {
		out := net.Forward(x, true)
		v := ce.Forward(out, labels)
		net.Backward(ce.Backward(1))
		return v
	}
	worst, err := GradCheck(net, loss, 1e-5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if worst > 0.01 {
		t.Fatalf("dense gradcheck worst rel error %v", worst)
	}
}

func TestConvGradCheck(t *testing.T) {
	g := rng.New(3)
	geom := tensor.ConvGeom{InC: 2, InH: 5, InW: 5, KH: 3, KW: 3, Stride: 1, Pad: 1}
	net := NewSequential(
		NewConvBN(NewConv2D("c1", geom, 3, g), NewBatchNorm("bn", 3, 25), true),
		NewGlobalAvgPool(3, 25),
		NewDense("fc", 3, 2, g),
	)
	x := tensor.New(2, 50)
	g.FillNormal(x.Data, 1)
	labels := []int{0, 1}
	var ce SoftmaxCrossEntropy
	loss := func() float64 {
		out := net.Forward(x, true)
		v := ce.Forward(out, labels)
		net.Backward(ce.Backward(1))
		return v
	}
	worst, err := GradCheck(net, loss, 1e-5, 7)
	if err != nil {
		t.Fatal(err)
	}
	if worst > 0.01 {
		t.Fatalf("conv gradcheck worst rel error %v", worst)
	}
}

func TestConvStride2GradCheck(t *testing.T) {
	g := rng.New(4)
	geom := tensor.ConvGeom{InC: 1, InH: 6, InW: 6, KH: 3, KW: 3, Stride: 2, Pad: 1}
	hw := geom.ColRows()
	net := NewSequential(NewConvBN(NewConv2D("c1", geom, 2, g), NewBatchNorm("bn", 2, hw), false),
		NewGlobalAvgPool(2, hw), NewDense("fc", 2, 2, g))
	x := tensor.New(2, 36)
	g.FillNormal(x.Data, 1)
	labels := []int{1, 0}
	var ce SoftmaxCrossEntropy
	loss := func() float64 {
		out := net.Forward(x, true)
		v := ce.Forward(out, labels)
		net.Backward(ce.Backward(1))
		return v
	}
	if _, err := GradCheck(net, loss, 1e-5, 3); err != nil {
		t.Fatal(err)
	}
}

func TestBatchNormGradCheck(t *testing.T) {
	g := rng.New(5)
	bn := NewBatchNorm("bn", 4, 1)
	net := NewSequential(
		NewDense("fc1", 3, 4, g),
		bn,
		NewReLU(4),
		NewDense("fc2", 4, 2, g),
	)
	x := tensor.New(6, 3)
	g.FillNormal(x.Data, 1)
	labels := []int{0, 1, 0, 1, 1, 0}
	var ce SoftmaxCrossEntropy
	loss := func() float64 {
		out := net.Forward(x, true)
		v := ce.Forward(out, labels)
		net.Backward(ce.Backward(1))
		return v
	}
	worst, err := GradCheck(net, loss, 1e-5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if worst > 0.02 {
		t.Fatalf("bn gradcheck worst rel error %v", worst)
	}
}

func TestBatchNormSpatialGradCheck(t *testing.T) {
	g := rng.New(6)
	geom := tensor.ConvGeom{InC: 1, InH: 4, InW: 4, KH: 3, KW: 3, Stride: 1, Pad: 1}
	unit := NewConvBN(NewConv2D("c", geom, 2, g), NewBatchNorm("bn", 2, 16), true)
	net := NewSequential(unit, NewGlobalAvgPool(2, 16), NewDense("fc", 2, 2, g))
	x := tensor.New(3, 16)
	g.FillNormal(x.Data, 1)
	labels := []int{0, 1, 1}
	var ce SoftmaxCrossEntropy
	loss := func() float64 {
		out := net.Forward(x, true)
		v := ce.Forward(out, labels)
		net.Backward(ce.Backward(1))
		return v
	}
	if _, err := GradCheck(net, loss, 1e-5, 3); err != nil {
		t.Fatal(err)
	}
}

func TestBatchNormNormalizesTrainingBatch(t *testing.T) {
	bn := NewBatchNorm("bn", 2, 1)
	x := tensor.New(100, 2)
	g := rng.New(7)
	for i := 0; i < 100; i++ {
		x.Set(i, 0, 5+3*g.Normal())
		x.Set(i, 1, -2+0.5*g.Normal())
	}
	y := bn.Forward(x, true)
	for c := 0; c < 2; c++ {
		var sum, sumsq float64
		for i := 0; i < 100; i++ {
			v := y.At(i, c)
			sum += v
			sumsq += v * v
		}
		mean := sum / 100
		variance := sumsq/100 - mean*mean
		if math.Abs(mean) > 1e-9 {
			t.Fatalf("channel %d mean %v after BN", c, mean)
		}
		if math.Abs(variance-1) > 0.01 {
			t.Fatalf("channel %d variance %v after BN", c, variance)
		}
	}
}

func TestBatchNormRunningStatsEMA(t *testing.T) {
	bn := NewBatchNorm("bn", 1, 1)
	bn.Momentum = 0.5
	x := tensor.FromSlice([]float64{2, 4}, 2, 1) // mean 3, var 1
	bn.Forward(x, true)
	if math.Abs(bn.RunningMean[0]-1.5) > 1e-12 { // 0.5*0 + 0.5*3
		t.Fatalf("running mean %v", bn.RunningMean[0])
	}
	if math.Abs(bn.RunningVar[0]-1.0) > 1e-12 { // 0.5*1 + 0.5*1
		t.Fatalf("running var %v", bn.RunningVar[0])
	}
	if bn.batchMean[0] != 3 || bn.batchVar[0] != 1 {
		t.Fatalf("batch stats %v %v", bn.batchMean, bn.batchVar)
	}
}

func TestBatchNormInferenceUsesRunning(t *testing.T) {
	bn := NewBatchNorm("bn", 1, 1)
	bn.RunningMean[0], bn.RunningVar[0] = 10, 4
	x := tensor.FromSlice([]float64{12}, 1, 1)
	y := bn.Forward(x, false)
	want := (12.0 - 10.0) / math.Sqrt(4+BNEpsilon)
	if math.Abs(y.Data[0]-want) > 1e-9 {
		t.Fatalf("inference BN: got %v want %v", y.Data[0], want)
	}
}

func TestGlobalAvgPoolForwardBackward(t *testing.T) {
	p := NewGlobalAvgPool(2, 4)
	x := tensor.FromSlice([]float64{1, 2, 3, 4, 10, 10, 10, 10}, 1, 8)
	y := p.Forward(x, true)
	if y.Data[0] != 2.5 || y.Data[1] != 10 {
		t.Fatalf("gap forward: %v", y.Data)
	}
	dx := p.Backward(tensor.FromSlice([]float64{4, 8}, 1, 2))
	if dx.Data[0] != 1 || dx.Data[4] != 2 {
		t.Fatalf("gap backward: %v", dx.Data)
	}
}

func TestResidualIdentityGradCheck(t *testing.T) {
	g := rng.New(8)
	path := NewSequential(NewDense("p1", 4, 4, g), NewReLU(4), NewDense("p2", 4, 4, g))
	block := NewResidual(path, nil)
	net := NewSequential(NewDense("in", 3, 4, g), block, NewDense("out", 4, 2, g))
	x := tensor.New(3, 3)
	g.FillNormal(x.Data, 1)
	labels := []int{0, 1, 1}
	var ce SoftmaxCrossEntropy
	loss := func() float64 {
		out := net.Forward(x, true)
		v := ce.Forward(out, labels)
		net.Backward(ce.Backward(1))
		return v
	}
	if _, err := GradCheck(net, loss, 1e-5, 1); err != nil {
		t.Fatal(err)
	}
}

func TestResidualProjectionGradCheck(t *testing.T) {
	g := rng.New(9)
	path := NewSequential(NewDense("p1", 4, 6, g))
	short := NewSequential(NewDense("s1", 4, 6, g))
	block := NewResidual(path, short)
	net := NewSequential(block, NewDense("out", 6, 2, g))
	x := tensor.New(3, 4)
	g.FillNormal(x.Data, 1)
	labels := []int{1, 0, 1}
	var ce SoftmaxCrossEntropy
	loss := func() float64 {
		out := net.Forward(x, true)
		v := ce.Forward(out, labels)
		net.Backward(ce.Backward(1))
		return v
	}
	if _, err := GradCheck(net, loss, 1e-5, 1); err != nil {
		t.Fatal(err)
	}
}

func TestResidualShapeMismatchPanics(t *testing.T) {
	g := rng.New(10)
	path := NewSequential(NewDense("p", 4, 6, g)) // widens without projection
	block := NewResidual(path, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	block.Forward(tensor.New(1, 4), true)
}

func TestSoftmaxCEKnownValue(t *testing.T) {
	var ce SoftmaxCrossEntropy
	logits := tensor.FromSlice([]float64{0, 0}, 1, 2)
	loss := ce.Forward(logits, []int{0})
	if math.Abs(loss-math.Log(2)) > 1e-12 {
		t.Fatalf("uniform CE loss = %v, want ln2", loss)
	}
	grad := ce.Backward(1)
	if math.Abs(grad.Data[0]-(-0.5)) > 1e-12 || math.Abs(grad.Data[1]-0.5) > 1e-12 {
		t.Fatalf("CE grad: %v", grad.Data)
	}
}

func TestSoftmaxCEGradientScale(t *testing.T) {
	var ce SoftmaxCrossEntropy
	logits := tensor.FromSlice([]float64{1, -1, 0.5, 2}, 2, 2)
	ce.Forward(logits, []int{0, 1})
	g1 := ce.Backward(1).Clone() // Backward reuses its buffer across calls
	g2 := ce.Backward(2.5)
	for i := range g1.Data {
		if math.Abs(g2.Data[i]-2.5*g1.Data[i]) > 1e-12 {
			t.Fatal("Backward(scale) must scale the gradient linearly")
		}
	}
}

// TestFlattenRoundTrip: packing flattens every parameter's values into
// State.Values; writing the layers writes the flat vector, and copying the
// saved flat values back restores every layer.
func TestFlattenRoundTrip(t *testing.T) {
	g := rng.New(11)
	net := NewSequential(NewDense("a", 3, 4, g), NewBatchNorm("bn", 4, 1), NewDense("b", 4, 2, g))
	params := net.Params()
	var want []float64
	for _, p := range params {
		want = append(want, p.Value.Data...)
	}
	st := net.State()
	buf := append([]float64(nil), st.Values...)
	if len(buf) != ParamCount(params) {
		t.Fatalf("flat values %d, want %d", len(buf), ParamCount(params))
	}
	for i := range buf {
		if buf[i] != want[i] {
			t.Fatal("packing did not keep the parameter values")
		}
	}
	// Perturb and restore.
	for _, p := range params {
		p.Value.Fill(0)
	}
	for _, v := range st.Values {
		if v != 0 {
			t.Fatal("a layer write missed the flat values")
		}
	}
	copy(st.Values, buf)
	off := 0
	for _, p := range params {
		for j, v := range p.Value.Data {
			if v != buf[off+j] {
				t.Fatal("flatten/unflatten round trip failed")
			}
		}
		off += p.Value.Len()
	}
}

func TestBatchNormsDiscovery(t *testing.T) {
	g := rng.New(13)
	inner := NewSequential(NewDense("d", 4, 4, g), NewBatchNorm("bn1", 4, 1))
	short := NewSequential(NewBatchNorm("bn2", 4, 1))
	block := NewResidual(inner, short)
	geom := tensor.ConvGeom{InC: 1, InH: 2, InW: 2, KH: 1, KW: 1, Stride: 1, Pad: 0}
	unit := NewConvBN(NewConv2D("c", geom, 1, g), NewBatchNorm("bn4", 1, 4), true)
	net := NewSequential(NewBatchNorm("bn0", 4, 1), block, NewSequential(NewBatchNorm("bn3", 4, 1), unit))
	bns := net.BatchNorms()
	if len(bns) != 5 || bns[4] != unit.BN {
		t.Fatalf("found %d BN layers, want 5 ending in the unit's", len(bns))
	}
}

func TestZeroGrad(t *testing.T) {
	g := rng.New(14)
	net := NewSequential(NewDense("a", 2, 3, g))
	for _, p := range net.Params() {
		p.Grad.Fill(1)
	}
	net.ZeroGrad()
	for _, p := range net.Params() {
		for _, v := range p.Grad.Data {
			if v != 0 {
				t.Fatal("ZeroGrad left residue")
			}
		}
	}
}

func TestGradientAccumulation(t *testing.T) {
	// Backward twice without ZeroGrad must double the gradient.
	g := rng.New(15)
	net := NewSequential(NewDense("a", 3, 2, g))
	x := tensor.New(2, 3)
	g.FillNormal(x.Data, 1)
	var ce SoftmaxCrossEntropy
	run := func() {
		out := net.Forward(x, true)
		ce.Forward(out, []int{0, 1})
		net.Backward(ce.Backward(1))
	}
	net.ZeroGrad()
	run()
	once := append([]float64(nil), net.Params()[0].Grad.Data...)
	run()
	twice := net.Params()[0].Grad.Data
	for i := range once {
		if math.Abs(twice[i]-2*once[i]) > 1e-12 {
			t.Fatal("gradients must accumulate across Backward calls")
		}
	}
}
