package nn

import (
	"fmt"

	"lcasgd/internal/tensor"
)

// Residual implements the ResNet basic-block skeleton: out = ReLU(path(x) +
// shortcut(x)). Shortcut may be nil for an identity skip (requires the path
// to preserve the feature width); otherwise it is typically a strided 1×1
// convolution + BN projection, matching He et al. 2016.
type Residual struct {
	Path     *Sequential
	Shortcut *Sequential // nil means identity

	// Reused buffers (see reuse2). out doubles as the final ReLU's
	// backward mask: out = max(sum, 0) is > 0 exactly where sum is.
	out, dSum, dx *tensor.Tensor
}

// NewResidual builds a residual block.
func NewResidual(path *Sequential, shortcut *Sequential) *Residual {
	if shortcut == nil && path.OutFeatures() == 0 {
		panic("nn: Residual path must report its feature width")
	}
	return &Residual{Path: path, Shortcut: shortcut}
}

// Forward computes ReLU(path(x) + shortcut(x)).
func (r *Residual) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	main := r.Path.Forward(x, train)
	var skip *tensor.Tensor
	if r.Shortcut != nil {
		skip = r.Shortcut.Forward(x, train)
	} else {
		skip = x
	}
	if !main.SameShape(skip) {
		panic(fmt.Sprintf("nn: residual shape mismatch %v vs %v (missing projection shortcut?)", main.Shape, skip.Shape))
	}
	out := reuse2(&r.out, main.Shape[0], main.Shape[1])
	tensor.AddReLU(out, main, skip)
	return out
}

// Backward propagates through the final ReLU, then through both branches,
// summing their input gradients. The ReLU's mask is read from the output:
// the sign-bit test of ReLUBackward gives the same mask on max(sum, 0) as
// on sum except on a NaN sum with its sign set, and inputs are finite.
func (r *Residual) Backward(grad *tensor.Tensor) *tensor.Tensor {
	dSum := reuse2(&r.dSum, grad.Shape[0], grad.Shape[1])
	tensor.ReLUBackward(dSum, grad, r.out)
	dxPath := r.Path.Backward(dSum)
	var dxSkip *tensor.Tensor
	if r.Shortcut != nil {
		dxSkip = r.Shortcut.Backward(dSum)
	} else {
		dxSkip = dSum
	}
	dx := reuse2(&r.dx, dxPath.Shape[0], dxPath.Shape[1])
	tensor.Add(dx, dxPath, dxSkip)
	return dx
}

// Params returns the parameters of both branches in a fresh slice — it must
// not append into the branches' cached walks (callers treat those as
// read-only); containers cache the combined walk anyway.
func (r *Residual) Params() []*Param {
	pathPs := r.Path.Params()
	if r.Shortcut == nil {
		return pathPs
	}
	shortPs := r.Shortcut.Params()
	ps := make([]*Param, 0, len(pathPs)+len(shortPs))
	ps = append(ps, pathPs...)
	ps = append(ps, shortPs...)
	return ps
}

// OutFeatures reports the path's output width.
func (r *Residual) OutFeatures() int { return r.Path.OutFeatures() }
