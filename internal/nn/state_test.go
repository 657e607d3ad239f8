package nn_test

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"lcasgd/internal/model"
	"lcasgd/internal/nn"
	"lcasgd/internal/rng"
	"lcasgd/internal/tensor"
	"lcasgd/internal/trainer"
)

// flatStateNets lists every profile model (their ResNets downsample through
// projection shortcuts) and the MLP, with each one's input width.
func flatStateNets() []struct {
	name  string
	in    int
	build func(*rng.RNG) *nn.Sequential
} {
	type net = struct {
		name  string
		in    int
		build func(*rng.RNG) *nn.Sequential
	}
	nets := []net{{"mlp", 36, func(g *rng.RNG) *nn.Sequential { return model.MLP("mlp", 36, 16, 4, g) }}}
	for _, p := range []trainer.Profile{trainer.QuickCIFAR(), trainer.FullCIFAR(), trainer.QuickImageNet(), trainer.FullImageNet()} {
		nets = append(nets, net{p.Name, p.Model.InC * p.Model.InH * p.Model.InW, p.Model.Build})
	}
	return nets
}

// checkView fails unless v is exactly flat[off:off+n] with capacity n.
func checkView(t *testing.T, what string, v, flat []float64, off, n int) {
	t.Helper()
	if len(v) != n || cap(v) != n || &v[0] != &flat[off] {
		t.Fatalf("%s: len %d cap %d, want a view of %d at offset %d", what, len(v), cap(v), n, off)
	}
}

// TestFlatStateLayout: packing keeps every value, and afterwards each
// parameter's value and gradient and each BN layer's four statistics are
// views at their offsets in Params and BatchNorms order, spanning the flat
// vectors exactly; a second State returns the same State.
func TestFlatStateLayout(t *testing.T) {
	for _, tc := range flatStateNets() {
		net := tc.build(rng.New(1))
		params, bns := net.Params(), net.BatchNorms()
		var before [][]float64
		for _, p := range params {
			before = append(before, slices.Clone(p.Value.Data))
		}
		st := net.State()
		if len(st.Values) != nn.ParamCount(params) || len(st.Grads) != len(st.Values) {
			t.Fatalf("%s: %d values, %d grads for %d parameters", tc.name, len(st.Values), len(st.Grads), nn.ParamCount(params))
		}
		off := 0
		for i, p := range params {
			n := p.Value.Len()
			checkView(t, tc.name+" "+p.Name+" value", p.Value.Data, st.Values, off, n)
			checkView(t, tc.name+" "+p.Name+" grad", p.Grad.Data, st.Grads, off, n)
			if !slices.Equal(p.Value.Data, before[i]) {
				t.Fatalf("%s: packing changed %s", tc.name, p.Name)
			}
			off += n
		}
		off = 0
		for _, bn := range bns {
			mean, vari := nn.BatchStats(bn)
			checkView(t, tc.name+" running mean", bn.RunningMean, st.RunningMean, off, bn.C)
			checkView(t, tc.name+" running var", bn.RunningVar, st.RunningVar, off, bn.C)
			checkView(t, tc.name+" batch mean", mean, st.BatchMean, off, bn.C)
			checkView(t, tc.name+" batch var", vari, st.BatchVar, off, bn.C)
			off += bn.C
		}
		for _, v := range [][]float64{st.RunningMean, st.RunningVar, st.BatchMean, st.BatchVar} {
			if len(v) != off {
				t.Fatalf("%s: a BN vector spans %d of %d channels", tc.name, len(v), off)
			}
		}
		if net.State() != st {
			t.Fatalf("%s: a second State packed again", tc.name)
		}
	}
}

// TestFlatStateWritesGoThrough: a write to the flat vectors is the layers'
// value, a write through a layer lands in the flat vectors, and a packed
// net trains to the bits of an unpacked twin — its flat gradient and batch
// statistics are the twin's per-layer ones concatenated, refreshed in place
// by every step.
func TestFlatStateWritesGoThrough(t *testing.T) {
	for _, tc := range flatStateNets() {
		net, twin := tc.build(rng.New(2)), tc.build(rng.New(2))
		st := net.State()
		for i := range st.Values {
			st.Values[i] += 1
		}
		for _, p := range twin.Params() {
			for j := range p.Value.Data {
				p.Value.Data[j] += 1
			}
		}
		for i, p := range net.Params() {
			p.Grad.Data[0] = float64(i + 1)
		}
		off := 0
		for i, p := range net.Params() {
			if st.Grads[off] != float64(i+1) {
				t.Fatalf("%s: a gradient write through %s missed the flat vector", tc.name, p.Name)
			}
			off += p.Value.Len()
		}
		bn := net.BatchNorms()[0]
		bn.RunningVar[0] = 3
		if st.RunningVar[0] != 3 {
			t.Fatalf("%s: a running-statistic write missed the flat vector", tc.name)
		}
		twin.BatchNorms()[0].RunningVar[0] = 3

		g := rng.New(3)
		var ce, ceTwin nn.SoftmaxCrossEntropy
		batchMean := &st.BatchMean[0]
		for step := 0; step < 2; step++ {
			x := tensor.New(3, tc.in)
			g.FillNormal(x.Data, 1)
			labels := []int{0, 1, 2}
			clear(st.Grads)
			twin.ZeroGrad()
			ce.Forward(net.Forward(x, true), labels)
			ceTwin.Forward(twin.Forward(x, true), labels)
			net.Backward(ce.Backward(1))
			twin.Backward(ceTwin.Backward(1))
			var grads, values, mean, vari, runMean, runVar []float64
			for _, p := range twin.Params() {
				grads = append(grads, p.Grad.Data...)
				values = append(values, p.Value.Data...)
			}
			for _, b := range twin.BatchNorms() {
				m, v := nn.BatchStats(b)
				mean, vari = append(mean, m...), append(vari, v...)
				runMean, runVar = append(runMean, b.RunningMean...), append(runVar, b.RunningVar...)
			}
			for _, c := range []struct {
				what      string
				got, want []float64
			}{
				{"values", st.Values, values}, {"gradient", st.Grads, grads},
				{"batch mean", st.BatchMean, mean}, {"batch var", st.BatchVar, vari},
				{"running mean", st.RunningMean, runMean}, {"running var", st.RunningVar, runVar},
			} {
				for i := range c.want {
					if math.Float64bits(c.got[i]) != math.Float64bits(c.want[i]) {
						t.Fatalf("%s step %d: flat %s[%d] = %v, unpacked twin %v", tc.name, step, c.what, i, c.got[i], c.want[i])
					}
				}
			}
			if &st.BatchMean[0] != batchMean {
				t.Fatalf("%s: the batch statistics moved", tc.name)
			}
		}
	}
}

// TestFlatStatePackGuards: the layer tree is fixed once packed, and layers
// are packed at most once — a nested Sequential of a packed net, or a net
// built around one, panics instead of re-pointing them.
func TestFlatStatePackGuards(t *testing.T) {
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", what)
			}
		}()
		f()
	}
	g := rng.New(4)
	inner := nn.NewSequential(nn.NewDense("a", 3, 4, g), nn.NewBatchNorm("bn", 4, 1))
	net := nn.NewSequential(inner, nn.NewReLU(4), nn.NewDense("b", 4, 2, g))
	net.State()
	mustPanic("Add after packing", func() { net.Add(nn.NewReLU(2)) })
	mustPanic("packing a nested Sequential of a packed net", func() { inner.State() })
	mustPanic("packing a net around a packed one", func() { nn.NewSequential(net).State() })
}

// bindNets lists the networks a fleet computes on: the fleet benchmark's
// MLP and the quick-CIFAR ResNet, whose stem and identity blocks run
// same-size convolutions and whose downsampling blocks gather, through
// projection shortcuts.
func bindNets() []struct {
	name  string
	in    int
	build func(*rng.RNG) *nn.Sequential
} {
	p := trainer.QuickCIFAR()
	return []struct {
		name  string
		in    int
		build func(*rng.RNG) *nn.Sequential
	}{
		{"mlp", 4, func(g *rng.RNG) *nn.Sequential { return model.MLP("fleet", 4, 16, 4, g) }},
		{p.Name, p.Model.InC * p.Model.InH * p.Model.InW, p.Model.Build},
	}
}

// TestBindCarriesNothingBetweenStates: one network bound alternately to two
// States, every layer buffer filled with NaN before each bind, computes what
// two private networks holding those States compute, bit for bit — the
// training forward's logits and loss, the backward's input gradient, the
// State it leaves (gradients, batch and running statistics), and the
// inference forward — at full and short batches. A State of another
// layout, or one vector short, panics.
func TestBindCarriesNothingBetweenStates(t *testing.T) {
	for _, tc := range bindNets() {
		shared := tc.build(rng.New(1))
		var priv [2]*nn.Sequential
		var sts [2]*nn.State
		for k := range priv {
			priv[k] = tc.build(rng.New(uint64(10 + k)))
			own := priv[k].State()
			for i := range own.RunningVar {
				own.RunningMean[i], own.RunningVar[i] = 0.1*float64(k+i), 1+0.2*float64(k)
			}
			sts[k] = shared.NewState()
			copy(sts[k].Values, own.Values)
			copy(sts[k].RunningMean, own.RunningMean)
			copy(sts[k].RunningVar, own.RunningVar)
		}
		var ce nn.SoftmaxCrossEntropy
		var ces [2]nn.SoftmaxCrossEntropy
		g := rng.New(3)
		for step, batch := range []int{6, 6, 3, 6, 1} {
			for k := range priv {
				label := fmt.Sprintf("%s step %d batch %d state %d", tc.name, step, batch, k)
				x := tensor.New(batch, tc.in)
				g.FillNormal(x.Data, 1)
				labels := make([]int, batch)
				for i := range labels {
					labels[i] = (step + i) % 4
				}
				nn.Scribble(shared)
				nn.ScribbleLoss(&ce)
				shared.Bind(sts[k])
				if shared.State() != sts[k] {
					t.Fatalf("%s: State is not the bound State", label)
				}
				st, own := sts[k], priv[k].State()
				clear(st.Grads)
				clear(own.Grads)
				out := shared.Forward(x, true)
				want := priv[k].Forward(x, true)
				sameBits(t, label+" logits", out.Data, want.Data)
				loss, wantLoss := ce.Forward(out, labels), ces[k].Forward(want, labels)
				sameBits(t, label+" loss", []float64{loss}, []float64{wantLoss})
				dx := shared.Backward(ce.Backward(1.5))
				wantDx := priv[k].Backward(ces[k].Backward(1.5))
				sameBits(t, label+" input gradient", dx.Data, wantDx.Data)
				for _, c := range []struct {
					what      string
					got, want []float64
				}{
					{"values", st.Values, own.Values}, {"gradient", st.Grads, own.Grads},
					{"batch mean", st.BatchMean, own.BatchMean}, {"batch var", st.BatchVar, own.BatchVar},
					{"running mean", st.RunningMean, own.RunningMean}, {"running var", st.RunningVar, own.RunningVar},
				} {
					sameBits(t, label+" "+c.what, c.got, c.want)
				}
				nn.Scribble(shared)
				sameBits(t, label+" inference", shared.Forward(x, false).Data, priv[k].Forward(x, false).Data)
			}
		}
	}

	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", what)
			}
		}()
		f()
	}
	nets := bindNets()
	mlp, resnet := nets[0].build(rng.New(1)), nets[1].build(rng.New(1))
	short := mlp.NewState()
	short.BatchVar = short.BatchVar[:len(short.BatchVar)-1]
	mustPanic("binding a State one statistic short", func() { mlp.Bind(short) })
	mustPanic("binding another net's layout", func() { mlp.Bind(resnet.NewState()) })
}

// TestBackwardLinearInSeed: after one training-mode forward, backpropagation
// is linear in the loss gradient that seeds it — the ReLU masks and the batch
// statistics are the forward's — so the parameter gradient of a seed scaled
// by s is s times the unit seed's, up to rounding. This is what lets LC-ASGD
// compensate a finished gradient instead of seeding its backward pass. The
// bound is relative to the gradient's largest entry: entries that are zero in
// exact arithmetic (the bias of a layer a batch norm follows) come out as
// rounding residue of either sign, which no per-entry bound can hold.
func TestBackwardLinearInSeed(t *testing.T) {
	for _, tc := range bindNets() {
		net := tc.build(rng.New(1))
		st := net.State()
		x := tensor.New(6, tc.in)
		rng.New(3).FillNormal(x.Data, 1)
		var ce nn.SoftmaxCrossEntropy
		ce.Forward(net.Forward(x, true), []int{0, 1, 2, 3, 0, 1})
		clear(st.Grads)
		net.BackwardParams(ce.Backward(1))
		unit := slices.Clone(st.Grads)
		largest := 0.0
		for _, u := range unit {
			largest = max(largest, math.Abs(u))
		}
		if largest == 0 {
			t.Fatalf("%s: the unit seed's gradient is zero", tc.name)
		}
		for _, s := range []float64{0.1, 0.5, 0.975} {
			clear(st.Grads)
			net.BackwardParams(ce.Backward(s))
			for i, g := range st.Grads {
				if d := math.Abs(g - s*unit[i]); d > 1e-12*s*largest {
					t.Fatalf("%s: seed scale %v: gradient[%d] = %v, want %v (s times the unit seed's) within %.0e of the largest entry",
						tc.name, s, i, g, s*unit[i], 1e-12)
				}
			}
		}
	}
}

// sameBits fails unless got and want hold the same float64 bits.
func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v, want %v", what, i, got[i], want[i])
		}
	}
}
