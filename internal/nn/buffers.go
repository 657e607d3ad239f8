package nn

import "lcasgd/internal/tensor"

// reuse2 returns the cached buffer *buf re-pointed at shape [r, c] when only
// the leading (batch) dimension differs and the buffer's backing array is
// large enough, replacing it with a fresh tensor otherwise.
//
// This is the memory model of the whole layer zoo (see DESIGN.md "Memory
// model"): every layer keeps one output buffer and one input-gradient
// buffer alive per instance instead of calling tensor.New per Forward/
// Backward. Because a network computes for one caller at a time (the Layer
// contract) this is single-owner state; because a pass writes every element
// before it reads one, the buffers carry nothing from one bound State to
// the next (Sequential.Bind); and because the buffers are distinct per
// layer, forward activations cached for the backward pass can never alias
// the gradients flowing back through other layers. A smaller batch (an
// evaluation remainder batch) reslices the buffer it already has and the
// next full batch reslices it back, so alternating batch sizes allocate
// nothing once the largest has been seen; only a larger batch or a
// different row width reallocates. The header is re-pointed in place: a
// tensor a layer returned describes that layer's latest pass, never an
// earlier one.
//
// The returned tensor's contents are unspecified; every caller overwrites
// every element.
func reuse2(buf **tensor.Tensor, r, c int) *tensor.Tensor {
	if b := *buf; b != nil && len(b.Shape) == 2 && b.Shape[1] == c {
		if b.Shape[0] == r {
			return b // steady state: nothing is written
		}
		if r*c <= cap(b.Data) {
			b.Shape[0] = r
			b.Data = b.Data[:r*c]
			return b
		}
	}
	b := tensor.New(r, c)
	*buf = b
	return b
}
