package nn_test

import (
	"testing"

	"lcasgd/internal/model"
	"lcasgd/internal/nn"
	"lcasgd/internal/rng"
	"lcasgd/internal/tensor"
)

func TestMLPGradCheck(t *testing.T) {
	g := rng.New(8)
	net := model.MLP("m", 4, 6, 3, g)
	x := tensor.New(5, 4)
	g.FillNormal(x.Data, 1)
	labels := []int{0, 1, 2, 0, 1}
	var ce nn.SoftmaxCrossEntropy
	loss := func() float64 {
		out := net.Forward(x, true)
		v := ce.Forward(out, labels)
		net.Backward(ce.Backward(1))
		return v
	}
	if _, err := nn.GradCheck(net, loss, 1e-5, 2); err != nil {
		t.Fatal(err)
	}
}
