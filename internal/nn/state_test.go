package nn_test

import (
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
