// Package nn is a from-scratch neural-network substrate: layers with
// explicit forward/backward passes, a sequential container, parameter
// flattening for parameter-server communication, and the loss functions used
// by the LC-ASGD reproduction. It supports the layer types the paper's
// networks need — dense, convolution, batch normalization (with hooks for
// distributed statistics), ReLU, pooling, and residual blocks.
package nn

import (
	"fmt"
	"math"

	"lcasgd/internal/rng"
	"lcasgd/internal/tensor"
)

// Param is one trainable parameter tensor with its gradient accumulator.
type Param struct {
	Name  string
	Value *tensor.Tensor
	Grad  *tensor.Tensor
}

// NewParam allocates a parameter and matching gradient of the given shape.
func NewParam(name string, shape ...int) *Param {
	return &Param{Name: name, Value: tensor.New(shape...), Grad: tensor.New(shape...)}
}

// ZeroGrad clears the gradient accumulator.
func (p *Param) ZeroGrad() { p.Grad.Zero() }

// InitHe fills the parameter with He-normal initialization for fanIn inputs,
// the standard choice for ReLU networks (He et al. 2015).
func (p *Param) InitHe(g *rng.RNG, fanIn int) {
	g.FillNormal(p.Value.Data, math.Sqrt(2/float64(fanIn)))
}

// ParamCount sums element counts across a parameter list.
func ParamCount(params []*Param) int {
	n := 0
	for _, p := range params {
		n += p.Value.Len()
	}
	return n
}

// FlattenValues copies every parameter's values into dst in order. dst must
// have exactly ParamCount(params) elements. This is the wire format the
// simulated parameter server exchanges with workers.
func FlattenValues(dst []float64, params []*Param) {
	off := 0
	for _, p := range params {
		n := copy(dst[off:], p.Value.Data)
		off += n
	}
	if off != len(dst) {
		panic(fmt.Sprintf("nn: FlattenValues wrote %d of %d elements", off, len(dst)))
	}
}

// UnflattenValues copies src into every parameter's values in order.
func UnflattenValues(params []*Param, src []float64) {
	off := 0
	for _, p := range params {
		n := copy(p.Value.Data, src[off:off+p.Value.Len()])
		off += n
	}
	if off != len(src) {
		panic(fmt.Sprintf("nn: UnflattenValues read %d of %d elements", off, len(src)))
	}
}

// FlattenGrads copies every parameter's gradients into dst in order.
func FlattenGrads(dst []float64, params []*Param) {
	off := 0
	for _, p := range params {
		n := copy(dst[off:], p.Grad.Data)
		off += n
	}
	if off != len(dst) {
		panic(fmt.Sprintf("nn: FlattenGrads wrote %d of %d elements", off, len(dst)))
	}
}
