package nn

import (
	"fmt"

	"lcasgd/internal/tensor"
)

// Layer is one differentiable stage of a network. Inputs and outputs are
// 2-D tensors of shape [batch, features]; convolutional layers interpret the
// feature axis as channel-major (C, H, W) data.
//
// Forward must record whatever it needs for the matching Backward call;
// Backward returns the gradient with respect to the layer input and
// accumulates parameter gradients (it adds to Param.Grad rather than
// overwriting, so gradient accumulation across micro-batches works).
// Layers are not safe for concurrent use; a network computes for one
// caller at a time, on the State it is bound to (Sequential.Bind).
//
// Buffer-reuse contract (the zero-allocation hot path): the tensors
// returned by Forward and Backward are layer-owned buffers that the SAME
// method's next call overwrites. Consumers must finish reading a result
// before re-invoking that method on the same layer — which the strict
// forward-then-backward iteration order guarantees — and must Clone
// anything they keep across iterations. Forward activations survive the
// whole backward pass untouched because every layer's output and
// input-gradient buffers are distinct allocations.
type Layer interface {
	Forward(x *tensor.Tensor, train bool) *tensor.Tensor
	Backward(grad *tensor.Tensor) *tensor.Tensor
	Params() []*Param
	OutFeatures() int
}

// Sequential chains layers. It is itself a Layer, so residual blocks can
// nest sequential paths.
type Sequential struct {
	Layers []Layer

	// The cached Params walk, invalidated by Add; ZeroGrad would otherwise
	// re-walk and re-allocate the tree every iteration. Mutating a nested
	// container after its parent has cached a walk is unsupported: build
	// the tree bottom-up (as internal/model does), then train.
	paramsCache []*Param

	// The State the layers view, set by State and moved by Bind (the layer
	// tree is fixed from then on); the BatchNorms walk Bind re-points; and
	// the layout, the parameter and BN channel counts.
	state     *State
	bns       []*BatchNorm
	nP, nChan int
}

// NewSequential builds a container from the given layers.
func NewSequential(layers ...Layer) *Sequential {
	return &Sequential{Layers: layers}
}

// Add appends a layer and invalidates the cached Params walk. It panics once
// the container is packed (State).
func (s *Sequential) Add(l Layer) {
	if s.state != nil {
		panic("nn: Add to a packed Sequential")
	}
	s.Layers = append(s.Layers, l)
	s.paramsCache = nil
}

// Forward runs every layer in order.
func (s *Sequential) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	for _, l := range s.Layers {
		x = l.Forward(x, train)
	}
	return x
}

// Backward runs every layer's backward pass in reverse order.
func (s *Sequential) Backward(grad *tensor.Tensor) *tensor.Tensor {
	for i := len(s.Layers) - 1; i >= 0; i-- {
		grad = s.Layers[i].Backward(grad)
	}
	return grad
}

// BackwardParams is Backward for a caller that discards the input gradient:
// every parameter gradient accumulates exactly as under Backward, but a
// first layer that can skip its input gradient (ConvBN, Dense) does, and
// allocates no buffer for it.
func (s *Sequential) BackwardParams(grad *tensor.Tensor) {
	if len(s.Layers) == 0 {
		return
	}
	for i := len(s.Layers) - 1; i > 0; i-- {
		grad = s.Layers[i].Backward(grad)
	}
	if l, ok := s.Layers[0].(interface{ backwardParams(*tensor.Tensor) }); ok {
		l.backwardParams(grad)
	} else {
		s.Layers[0].Backward(grad)
	}
}

// Params returns all parameters in layer order. The walk is computed once
// and cached (Add invalidates); callers must treat the returned slice as
// read-only.
func (s *Sequential) Params() []*Param {
	if s.paramsCache == nil {
		ps := []*Param{}
		for _, l := range s.Layers {
			ps = append(ps, l.Params()...)
		}
		s.paramsCache = ps
	}
	return s.paramsCache
}

// OutFeatures reports the feature width of the final layer.
func (s *Sequential) OutFeatures() int {
	if len(s.Layers) == 0 {
		return 0
	}
	return s.Layers[len(s.Layers)-1].OutFeatures()
}

// ZeroGrad clears every parameter gradient in the container.
func (s *Sequential) ZeroGrad() {
	for _, p := range s.Params() {
		p.Grad.Zero()
	}
}

// BatchNorms returns every BatchNorm layer in the container, recursing into
// nested sequentials and residual blocks, in the order State lays out their
// statistics.
func (s *Sequential) BatchNorms() []*BatchNorm {
	var bns []*BatchNorm
	var walk func(l Layer)
	walk = func(l Layer) {
		switch v := l.(type) {
		case *BatchNorm:
			bns = append(bns, v)
		case *ConvBN:
			bns = append(bns, v.BN)
		case *Sequential:
			for _, inner := range v.Layers {
				walk(inner)
			}
		case *Residual:
			walk(v.Path)
			if v.Shortcut != nil {
				walk(v.Shortcut)
			}
		}
	}
	for _, l := range s.Layers {
		walk(l)
	}
	return bns
}

// State packs the network into one flat State on its first call and returns
// the State its layers view on every call. Packing copies every parameter's
// values and gradients and every BN layer's statistics into the flat
// vectors, then re-points the layers' slices at their windows of them, so
// the layers read and write the same values at new addresses. Packing
// layers already packed panics — a nested Sequential of a packed net is one
// such case — and so does a later Add.
func (s *Sequential) State() *State {
	if s.state != nil {
		return s.state
	}
	params, bns := s.Params(), s.BatchNorms()
	n, c := ParamCount(params), 0
	for _, bn := range bns {
		c += bn.C
	}
	st := newState(n, c)
	off := 0
	for _, p := range params {
		if p.packed {
			panic(fmt.Sprintf("nn: parameter %s is already packed", p.Name))
		}
		p.packed = true
		copy(st.Values[off:], p.Value.Data)
		copy(st.Grads[off:], p.Grad.Data)
		off += len(p.Value.Data)
	}
	off = 0
	for _, bn := range bns {
		copy(st.RunningMean[off:], bn.RunningMean)
		copy(st.RunningVar[off:], bn.RunningVar)
		copy(st.BatchMean[off:], bn.batchMean)
		copy(st.BatchVar[off:], bn.batchVar)
		off += bn.C
	}
	s.bns, s.nP, s.nChan = bns, n, c
	s.bind(st)
	return st
}

// NewState packs the network (State) and allocates a zeroed State of its
// layout, one Bind accepts.
func (s *Sequential) NewState() *State {
	s.State()
	return newState(s.nP, s.nChan)
}

// Bind re-points the network's parameters and BN statistics at st, a State
// of its layout (NewState), and State then returns st. Nothing is copied:
// the layers compute in place on st's vectors, through views whose capacity
// ends at their window, until the next Bind. So one network computes for
// many States in turn, each standing for a network of its own: the layers
// keep no value across passes that Bind leaves behind, only buffers every
// pass overwrites. Bind packs an unpacked network first (State), and panics
// when a vector of st is not the layout's length.
func (s *Sequential) Bind(st *State) {
	s.State()
	n, c := s.nP, s.nChan
	if len(st.Values) != n || len(st.Grads) != n || len(st.RunningMean) != c || len(st.RunningVar) != c ||
		len(st.BatchMean) != c || len(st.BatchVar) != c {
		panic(fmt.Sprintf("nn: Bind a State of %d/%d values and %d/%d/%d/%d statistics to a net of %d and %d",
			len(st.Values), len(st.Grads), len(st.RunningMean), len(st.RunningVar), len(st.BatchMean), len(st.BatchVar), n, c))
	}
	s.bind(st)
}

// bind points every parameter and BN layer at its window of st.
func (s *Sequential) bind(st *State) {
	off := 0
	for _, p := range s.paramsCache {
		n := len(p.Value.Data)
		p.Value.Data = window(st.Values, off, n)
		p.Grad.Data = window(st.Grads, off, n)
		off += n
	}
	off = 0
	for _, bn := range s.bns {
		bn.RunningMean = window(st.RunningMean, off, bn.C)
		bn.RunningVar = window(st.RunningVar, off, bn.C)
		bn.batchMean = window(st.BatchMean, off, bn.C)
		bn.batchVar = window(st.BatchVar, off, bn.C)
		off += bn.C
	}
	s.state = st
}

// ReLULayer applies the rectifier elementwise. It is stateless apart from
// caching its input for the backward pass and its reused buffers.
type ReLULayer struct {
	features int
	x        *tensor.Tensor
	out, dx  *tensor.Tensor
}

// NewReLU returns a ReLU layer that reports the given feature width.
func NewReLU(features int) *ReLULayer { return &ReLULayer{features: features} }

// Forward computes max(x, 0).
func (r *ReLULayer) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	r.x = x
	out := reuse2(&r.out, x.Shape[0], x.Shape[1])
	tensor.ReLU(out, x)
	return out
}

// Backward masks the incoming gradient by the sign of the cached input.
func (r *ReLULayer) Backward(grad *tensor.Tensor) *tensor.Tensor {
	dx := reuse2(&r.dx, grad.Shape[0], grad.Shape[1])
	tensor.ReLUBackward(dx, grad, r.x)
	return dx
}

// Params returns nil; ReLU has no parameters.
func (r *ReLULayer) Params() []*Param { return nil }

// OutFeatures reports the configured feature width.
func (r *ReLULayer) OutFeatures() int { return r.features }
