package model

import (
	"math"
	"slices"
	"testing"

	"lcasgd/internal/nn"
	"lcasgd/internal/rng"
	"lcasgd/internal/tensor"
)

// inFeatures is the flattened input width the network expects.
func inFeatures(c Config) int { return c.InC * c.InH * c.InW }

// finite reports whether no element is NaN or Inf.
func finite(xs []float64) bool {
	return !slices.ContainsFunc(xs, func(v float64) bool { return math.IsNaN(v) || math.IsInf(v, 0) })
}

func TestResNetLite18ForwardShape(t *testing.T) {
	cfg := ResNetLite18(10)
	net := cfg.Build(rng.New(1))
	x := tensor.New(4, inFeatures(cfg))
	rng.New(2).FillNormal(x.Data, 1)
	out := net.Forward(x, true)
	if out.Shape[0] != 4 || out.Shape[1] != 10 {
		t.Fatalf("output shape %v", out.Shape)
	}
	if !finite(out.Data) {
		t.Fatal("forward produced NaN")
	}
}

func TestResNetLite50ForwardShape(t *testing.T) {
	cfg := ResNetLite50(27)
	net := cfg.Build(rng.New(1))
	x := tensor.New(2, inFeatures(cfg))
	rng.New(2).FillNormal(x.Data, 1)
	out := net.Forward(x, false)
	if out.Shape[0] != 2 || out.Shape[1] != 27 {
		t.Fatalf("output shape %v", out.Shape)
	}
}

func TestBuildDeterministic(t *testing.T) {
	cfg := ResNetLite18(10)
	a := cfg.Build(rng.New(99))
	b := cfg.Build(rng.New(99))
	pa, pb := a.Params(), b.Params()
	if len(pa) != len(pb) {
		t.Fatalf("param list lengths differ: %d vs %d", len(pa), len(pb))
	}
	for i := range pa {
		for j := range pa[i].Value.Data {
			if pa[i].Value.Data[j] != pb[i].Value.Data[j] {
				t.Fatalf("param %s differs at %d", pa[i].Name, j)
			}
		}
	}
}

func TestResNetBackwardRuns(t *testing.T) {
	cfg := ResNetLite18(10)
	net := cfg.Build(rng.New(3))
	x := tensor.New(2, inFeatures(cfg))
	rng.New(4).FillNormal(x.Data, 1)
	var ce nn.SoftmaxCrossEntropy
	out := net.Forward(x, true)
	ce.Forward(out, []int{1, 7})
	net.Backward(ce.Backward(1))
	nonzero := false
	for _, p := range net.Params() {
		if slices.ContainsFunc(p.Grad.Data, func(v float64) bool { return v != 0 }) {
			nonzero = true
		}
		if !finite(p.Grad.Data) {
			t.Fatalf("NaN gradient in %s", p.Name)
		}
	}
	if !nonzero {
		t.Fatal("backward produced all-zero gradients")
	}
}

// TestBackwardParamsMatchesBackward: the parameter-gradient-only backward
// pass the workers run accumulates every W.Grad and B.Grad to the bits
// Backward does, from non-zero starting gradients, on the quick profiles'
// nets (trainer.QuickCIFAR and trainer.QuickImageNet, whose first layer is a
// conv) and the MLP (whose first layer is a Dense).
func TestBackwardParamsMatchesBackward(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func(*rng.RNG) *nn.Sequential
		in    int
	}{
		{"cifar-quick", Config{Name: "cifarq", InC: 3, InH: 8, InW: 8, Stem: 6, StageReps: []int{1, 1, 1}, NumClasses: 10}.Build, 3 * 8 * 8},
		{"imagenet-quick", Config{Name: "imagenetq", InC: 3, InH: 12, InW: 12, Stem: 8, StageReps: []int{1, 1, 1}, NumClasses: 27}.Build, 3 * 12 * 12},
		{"mlp", func(g *rng.RNG) *nn.Sequential { return MLP("m", 36, 16, 4, g) }, 36},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const batch = 7
			x := tensor.New(batch, tc.in)
			rng.New(31).FillNormal(x.Data, 1)
			labels := make([]int, batch)
			for i := range labels {
				labels[i] = i % 4
			}
			grads := func(params bool) [][]float64 {
				net := tc.build(rng.New(30))
				g := rng.New(32)
				for _, p := range net.Params() {
					g.FillNormal(p.Grad.Data, 0.3)
				}
				var ce nn.SoftmaxCrossEntropy
				ce.Forward(net.Forward(x, true), labels)
				if params {
					net.BackwardParams(ce.Backward(1))
				} else {
					net.Backward(ce.Backward(1))
				}
				var out [][]float64
				for _, p := range net.Params() {
					out = append(out, p.Grad.Data)
				}
				return out
			}
			want, got := grads(false), grads(true)
			for i := range want {
				for j := range want[i] {
					if math.Float64bits(got[i][j]) != math.Float64bits(want[i][j]) {
						t.Fatalf("param %d grad[%d] = %v, Backward's %v", i, j, got[i][j], want[i][j])
					}
				}
			}
		})
	}
}

func TestResNetHasBatchNorms(t *testing.T) {
	cfg := ResNetLite18(10)
	net := cfg.Build(rng.New(5))
	bns := net.BatchNorms()
	// Stem BN + 2 per basic block + projection BNs for stage transitions.
	if len(bns) < 10 {
		t.Fatalf("expected a deep BN stack, found %d", len(bns))
	}
}

func TestResNetTrainsOnToyProblem(t *testing.T) {
	if testing.Short() {
		t.Skip("training smoke test skipped in -short")
	}
	cfg := Config{Name: "tiny", InC: 1, InH: 6, InW: 6, Stem: 4, StageReps: []int{1}, NumClasses: 2}
	net := cfg.Build(rng.New(6))
	g := rng.New(7)
	// Two linearly separable blob classes in pixel space.
	n := 32
	x := tensor.New(n, inFeatures(cfg))
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		labels[i] = i % 2
		shift := float64(labels[i])*2 - 1
		for j := 0; j < inFeatures(cfg); j++ {
			x.Data[i*inFeatures(cfg)+j] = shift + 0.3*g.Normal()
		}
	}
	var ce nn.SoftmaxCrossEntropy
	params := net.Params()
	first := ce.Forward(net.Forward(x, true), labels)
	for step := 0; step < 60; step++ {
		net.ZeroGrad()
		out := net.Forward(x, true)
		ce.Forward(out, labels)
		net.Backward(ce.Backward(1))
		for _, p := range params {
			for i, g := range p.Grad.Data {
				p.Value.Data[i] -= 0.05 * g
			}
		}
	}
	last := ce.Forward(net.Forward(x, true), labels)
	if last >= first {
		t.Fatalf("loss did not decrease: %v -> %v", first, last)
	}
	pred := make([]int, n)
	tensor.ArgmaxRowsInto(pred, net.Forward(x, false))
	correct := 0
	for i, p := range pred {
		if p == labels[i] {
			correct++
		}
	}
	if acc := float64(correct) / float64(n); acc < 0.9 {
		t.Fatalf("toy accuracy %v after training", acc)
	}
}
