// Package nn is a from-scratch neural-network substrate: layers with
// explicit forward/backward passes, a sequential container whose flat State
// holds the vectors a parameter server exchanges, and the loss functions
// used by the LC-ASGD reproduction. It supports the layer types the paper's
// networks need — dense, batch normalization (with hooks for distributed
// statistics), ReLU, a convolution with its batch norm and ReLU as one unit
// (ConvBN), pooling, and residual blocks.
package nn

import (
	"math"

	"lcasgd/internal/rng"
	"lcasgd/internal/tensor"
)

// Param is one trainable parameter tensor with its gradient accumulator.
type Param struct {
	Name  string
	Value *tensor.Tensor
	Grad  *tensor.Tensor

	packed bool // Value and Grad are views of a State
}

// NewParam allocates a parameter and matching gradient of the given shape.
func NewParam(name string, shape ...int) *Param {
	return &Param{Name: name, Value: tensor.New(shape...), Grad: tensor.New(shape...)}
}

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

// State is a network's flat state (Sequential.State): every parameter's
// values and gradients in Params() order, and every BN layer's running and
// latest batch statistics in BatchNorms() order. The layers hold views of
// these vectors and compute in place on them, so they are the wire format
// the parameter server exchanges: a pull copies into Values and the running
// statistics, and the push reads Grads and the batch statistics. A network
// computes on one State at a time; Bind moves it to another of the same
// layout.
type State struct {
	Values, Grads           []float64
	RunningMean, RunningVar []float64
	BatchMean, BatchVar     []float64
}

// newState allocates a zeroed State of n parameters and c BN channels.
func newState(n, c int) *State {
	return &State{
		Values: make([]float64, n), Grads: make([]float64, n),
		RunningMean: make([]float64, c), RunningVar: make([]float64, c),
		BatchMean: make([]float64, c), BatchVar: make([]float64, c),
	}
}

// window returns v[off:off+n] with its capacity cut at its length, so no
// append can run past it.
func window(v []float64, off, n int) []float64 { return v[off : off+n : off+n] }
