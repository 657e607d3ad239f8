package nn

import (
	"fmt"

	"lcasgd/internal/rng"
	"lcasgd/internal/tensor"
)

// Dense is a fully connected layer: y = x @ W + b with W of shape
// [in, out] and b of shape [out].
type Dense struct {
	In, Out int
	W, B    *Param
	x       *tensor.Tensor // cached input for backward

	out, dx *tensor.Tensor // reused per-call buffers (see reuse2)
}

// NewDense constructs a dense layer with He initialization (suited to the
// ReLU networks used throughout) and zero bias.
func NewDense(name string, in, out int, g *rng.RNG) *Dense {
	d := &Dense{
		In:  in,
		Out: out,
		W:   NewParam(name+".W", in, out),
		B:   NewParam(name+".b", out),
	}
	d.W.InitHe(g, in)
	return d
}

// Forward computes x @ W + b.
func (d *Dense) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.Rank() != 2 || x.Shape[1] != d.In {
		panic(fmt.Sprintf("nn: Dense %s expects [N,%d], got %v", d.W.Name, d.In, x.Shape))
	}
	d.x = x
	out := reuse2(&d.out, x.Shape[0], d.Out)
	tensor.MatMulInto(out, x, d.W.Value)
	tensor.AddRowVector(out, out, d.B.Value)
	return out
}

// Backward accumulates dW = xᵀ @ dY, db = Σ_rows dY and returns
// dX = dY @ Wᵀ.
func (d *Dense) Backward(grad *tensor.Tensor) *tensor.Tensor {
	d.backwardParams(grad)
	dx := reuse2(&d.dx, grad.Shape[0], d.In)
	tensor.MatMulTransBInto(dx, grad, d.W.Value)
	return dx
}

// backwardParams is Backward without the input gradient (see
// Sequential.BackwardParams). It adds each gradient straight into the
// parameter's Grad: W.Grad += xᵀ @ dY, and B.Grad[j] += the sum of dY's
// column j, one chain from +0 over the rows ascending. Each sum joins Grad
// once, so the bits are those of summing into zeroed scratch and adding
// that, whatever Grad held.
func (d *Dense) backwardParams(grad *tensor.Tensor) {
	tensor.MatMulTransAAdd(d.W.Grad, d.x, grad)
	bg := d.B.Grad.Data
	for j := range bg {
		s := 0.0
		for i := j; i < len(grad.Data); i += len(bg) {
			s += grad.Data[i]
		}
		bg[j] += s
	}
}

// Params returns the weight and bias.
func (d *Dense) Params() []*Param { return []*Param{d.W, d.B} }

// OutFeatures reports the output width.
func (d *Dense) OutFeatures() int { return d.Out }
