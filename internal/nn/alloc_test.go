package nn

import (
	"slices"
	"testing"

	"lcasgd/internal/rng"
	"lcasgd/internal/tensor"
)

// convTestNet builds a net covering the whole layer zoo: conv units with
// and without the rectifier, residual (a projection shortcut), average
// pooling, dense BN, ReLU, dense.
func convTestNet(g *rng.RNG) *Sequential {
	unit := func(name string, geom tensor.ConvGeom, relu bool) *ConvBN {
		return NewConvBN(NewConv2D(name, geom, 4, g), NewBatchNorm(name+".bn", 4, geom.ColRows()), relu)
	}
	path := NewSequential(unit("r.c", tensor.ConvGeom{InC: 4, InH: 4, InW: 4, KH: 3, KW: 3, Stride: 1, Pad: 1}, false))
	short := NewSequential(unit("r.s", tensor.ConvGeom{InC: 4, InH: 4, InW: 4, KH: 1, KW: 1, Stride: 1, Pad: 0}, false))
	return NewSequential(
		unit("c0", tensor.ConvGeom{InC: 1, InH: 8, InW: 8, KH: 3, KW: 3, Stride: 2, Pad: 1}, true),
		NewResidual(path, short),
		NewGlobalAvgPool(4, 16),
		NewBatchNorm("bnd", 4, 1),
		NewReLU(4),
		NewDense("fc", 4, 3, g),
	)
}

// TestForwardBackwardZeroAllocSteadyState pins the whole-layer-zoo training
// iteration (forward + loss + backward + ZeroGrad) to zero heap allocations
// once the per-layer buffers are warm — the regression guard for the
// zero-allocation hot path.
func TestForwardBackwardZeroAllocSteadyState(t *testing.T) {
	g := rng.New(21)
	net := convTestNet(g)
	x := tensor.New(6, 64)
	g.FillNormal(x.Data, 1)
	labels := []int{0, 1, 2, 0, 1, 2}
	var ce SoftmaxCrossEntropy
	iter := func() {
		net.ZeroGrad()
		out := net.Forward(x, true)
		ce.Forward(out, labels)
		net.Backward(ce.Backward(1))
	}
	iter() // warm the buffers (first iteration allocates them)
	if allocs := testing.AllocsPerRun(20, iter); allocs != 0 {
		t.Fatalf("steady-state forward/backward allocates %v times per iteration, want 0", allocs)
	}
}

// TestBackwardParamsSkipsFirstInputGrad: the workers' backward pass
// (BackwardParams) never gives a first ConvBN or Dense an input-gradient
// buffer, and runs at zero allocations like Backward.
func TestBackwardParamsSkipsFirstInputGrad(t *testing.T) {
	g := rng.New(26)
	mlp := NewSequential(NewDense("fc1", 64, 8, g), NewReLU(8), NewDense("fc2", 8, 3, g))
	for _, net := range []*Sequential{convTestNet(g), mlp} {
		x := tensor.New(6, 64)
		g.FillNormal(x.Data, 1)
		labels := []int{0, 1, 2, 0, 1, 2}
		var ce SoftmaxCrossEntropy
		iter := func() {
			net.ZeroGrad()
			ce.Forward(net.Forward(x, true), labels)
			net.BackwardParams(ce.Backward(1))
		}
		iter()
		if allocs := testing.AllocsPerRun(20, iter); allocs != 0 {
			t.Fatalf("steady-state BackwardParams allocates %v times per iteration, want 0", allocs)
		}
		switch l := net.Layers[0].(type) {
		case *ConvBN:
			if l.dx != nil {
				t.Fatal("BackwardParams allocated the first ConvBN's input gradient")
			}
		case *Dense:
			if l.dx != nil {
				t.Fatal("BackwardParams allocated the first Dense's input gradient")
			}
		}
	}
}

// TestInferenceZeroAllocSteadyState pins the evaluation-mode forward pass
// (the eval-shard hot loop) to zero allocations.
func TestInferenceZeroAllocSteadyState(t *testing.T) {
	g := rng.New(22)
	net := convTestNet(g)
	x := tensor.New(6, 64)
	g.FillNormal(x.Data, 1)
	pred := make([]int, 6)
	iter := func() {
		out := net.Forward(x, false)
		tensor.ArgmaxRowsInto(pred, out)
	}
	iter()
	if allocs := testing.AllocsPerRun(20, iter); allocs != 0 {
		t.Fatalf("steady-state inference allocates %v times per run, want 0", allocs)
	}
}

// TestBackwardDoesNotCorruptForwardActivations proves the aliasing
// discipline of the reuse scheme: the activations every layer produced
// during Forward must be bit-identical before and after the full Backward
// pass, because output buffers and gradient buffers are distinct.
func TestBackwardDoesNotCorruptForwardActivations(t *testing.T) {
	g := rng.New(23)
	net := convTestNet(g)
	x := tensor.New(4, 64)
	g.FillNormal(x.Data, 1)
	labels := []int{0, 1, 2, 0}
	var ce SoftmaxCrossEntropy

	// Warm the buffers so the recorded activations ARE the reused buffers.
	out := net.Forward(x, true)
	ce.Forward(out, labels)
	net.Backward(ce.Backward(1))
	net.ZeroGrad()

	// Re-run forward, capturing each layer's live output buffer + a copy.
	var live []*tensor.Tensor
	var snap []*tensor.Tensor
	cur := x
	for _, l := range net.Layers {
		cur = l.Forward(cur, true)
		live = append(live, cur)
		snap = append(snap, cur.Clone())
	}
	ce.Forward(cur, labels)
	net.Backward(ce.Backward(1))

	for i, buf := range live {
		for j := range buf.Data {
			if buf.Data[j] != snap[i].Data[j] {
				t.Fatalf("layer %d activation[%d] corrupted by Backward: %v != %v",
					i, j, buf.Data[j], snap[i].Data[j])
			}
		}
	}
}

// TestReusedBuffersAreDeterministic re-runs the identical iteration twice on
// warm buffers and requires bit-identical losses and gradients — reuse must
// be numerically invisible.
func TestReusedBuffersAreDeterministic(t *testing.T) {
	g := rng.New(24)
	net := convTestNet(g)
	x := tensor.New(4, 64)
	g.FillNormal(x.Data, 1)
	labels := []int{2, 1, 0, 1}
	var ce SoftmaxCrossEntropy
	st := net.State()
	run := func() (float64, []float64) {
		net.ZeroGrad()
		out := net.Forward(x, true)
		v := ce.Forward(out, labels)
		net.Backward(ce.Backward(1))
		return v, slices.Clone(st.Grads)
	}
	run() // warm
	l1, g1 := run()
	l2, g2 := run()
	if l1 != l2 {
		t.Fatalf("loss differs across reused iterations: %v vs %v", l1, l2)
	}
	for i := range g1 {
		if g1[i] != g2[i] {
			t.Fatalf("grad[%d] differs across reused iterations: %v vs %v", i, g1[i], g2[i])
		}
	}
}

// TestBatchSizeChangeReusesCapacity drives the same layer with alternating
// batch sizes (the evaluation remainder-batch pattern): a smaller batch is
// served from the buffer the larger one left, the next full batch from the
// same buffer again, the outputs stay correct at every size, and once the
// largest batch has been seen nothing reallocates.
func TestBatchSizeChangeReusesCapacity(t *testing.T) {
	g := rng.New(25)
	d := NewDense("fc", 3, 2, g)
	x4 := tensor.New(4, 3)
	x2 := tensor.New(2, 3)
	g.FillNormal(x4.Data, 1)
	copy(x2.Data, x4.Data[:6])
	full := d.Forward(x4, false)
	out4 := full.Clone()
	out2 := d.Forward(x2, false)
	if out2 != full {
		t.Fatal("remainder batch reallocated the output buffer")
	}
	if out2.Shape[0] != 2 || len(out2.Data) != 4 {
		t.Fatalf("remainder batch output shape %v, len %d", out2.Shape, len(out2.Data))
	}
	for i := 0; i < 4; i++ { // first two rows of x4 == x2
		if out2.Data[i] != out4.Data[i] {
			t.Fatalf("batch-size change corrupted output: %v vs %v", out2.Data[i], out4.Data[i])
		}
	}
	back := d.Forward(x4, false)
	if back != full || back.Shape[0] != 4 {
		t.Fatalf("full batch after a remainder: buffer reused %v, shape %v", back == full, back.Shape)
	}
	for i, v := range out4.Data {
		if back.Data[i] != v {
			t.Fatalf("full batch after a remainder: out[%d] = %v, want %v", i, back.Data[i], v)
		}
	}

	// The layers whose buffers follow the input's shape rather than a
	// configured width, forward and backward: a remainder batch and the
	// full batch after it live in the buffers the first full batch left.
	for _, tc := range []struct {
		name string
		l    Layer
	}{
		{"relu", NewReLU(3)},
		{"residual", NewResidual(NewSequential(NewDense("p", 3, 3, g)), nil)},
	} {
		fullOut, fullDx := tc.l.Forward(x4, true), tc.l.Backward(x4)
		wantOut, wantDx := fullOut.Clone(), fullDx.Clone()
		smallOut := tc.l.Forward(x2, true)
		if smallOut != fullOut || smallOut.Shape[0] != 2 || len(smallOut.Data) != 6 {
			t.Fatalf("%s: remainder batch output reused %v, shape %v", tc.name, smallOut == fullOut, smallOut.Shape)
		}
		for i, v := range smallOut.Data {
			if v != wantOut.Data[i] {
				t.Fatalf("%s: remainder batch out[%d] = %v, want %v", tc.name, i, v, wantOut.Data[i])
			}
		}
		cycle := func() {
			tc.l.Forward(x2, true)
			tc.l.Backward(x2)
			tc.l.Forward(x4, true)
			tc.l.Backward(x4)
		}
		if allocs := testing.AllocsPerRun(10, cycle); allocs != 0 {
			t.Fatalf("%s: shrink/regrow allocates %v times per cycle, want 0", tc.name, allocs)
		}
		out, dx := tc.l.Forward(x4, true), tc.l.Backward(x4)
		if out != fullOut || dx != fullDx {
			t.Fatalf("%s: full batch after a remainder replaced a buffer", tc.name)
		}
		for i := range wantOut.Data {
			if out.Data[i] != wantOut.Data[i] || dx.Data[i] != wantDx.Data[i] {
				t.Fatalf("%s: full batch after a remainder: element %d moved", tc.name, i)
			}
		}
	}

	// The whole layer zoo, inference mode, sizes alternating.
	net := convTestNet(g)
	big, small := tensor.New(6, 64), tensor.New(2, 64)
	g.FillNormal(big.Data, 1)
	copy(small.Data, big.Data[:2*64])
	wantSmall := net.Forward(small, false).Clone()
	iter := func() {
		net.Forward(big, false)
		net.Forward(small, false)
	}
	iter()
	if allocs := testing.AllocsPerRun(10, iter); allocs != 0 {
		t.Fatalf("alternating batch sizes allocate %v times per pair, want 0", allocs)
	}
	got := net.Forward(small, false)
	for i, v := range wantSmall.Data {
		if got.Data[i] != v {
			t.Fatalf("remainder batch through warm buffers: out[%d] = %v, want %v", i, got.Data[i], v)
		}
	}
}
