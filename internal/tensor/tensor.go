// Package tensor implements dense row-major float64 tensors and the
// numerical kernels the neural-network substrate is built on: elementwise
// arithmetic, reductions, blocked matrix multiplication, and the
// im2col/col2im transforms used by convolution layers.
//
// Everything is stdlib-only, deterministic and single-goroutine: a kernel
// runs on its caller's goroutine, and its floating-point summation order is
// a function of the operand shapes alone.
package tensor

import (
	"fmt"
	"strings"
)

// Tensor is a dense row-major array of float64 with an explicit shape.
type Tensor struct {
	Shape []int
	Data  []float64
}

// New allocates a zero tensor with the given shape.
func New(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension in shape %v", shape))
		}
		n *= d
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: make([]float64, n)}
}

// FromSlice wraps data in a tensor of the given shape. The slice is used
// directly (not copied); it panics if the length does not match the shape.
func FromSlice(data []float64, shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(data) {
		panic(fmt.Sprintf("tensor: shape %v requires %d elements, got %d", shape, n, len(data)))
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: data}
}

// Len returns the number of elements.
func (t *Tensor) Len() int { return len(t.Data) }

// Rank returns the number of axes.
func (t *Tensor) Rank() int { return len(t.Shape) }

// SameShape reports whether t and u have identical shapes.
func (t *Tensor) SameShape(u *Tensor) bool {
	if len(t.Shape) != len(u.Shape) {
		return false
	}
	for i := range t.Shape {
		if t.Shape[i] != u.Shape[i] {
			return false
		}
	}
	return true
}

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	c := New(t.Shape...)
	copy(c.Data, t.Data)
	return c
}

// CopyFrom copies u's data into t. Shapes must match in element count.
func (t *Tensor) CopyFrom(u *Tensor) {
	if len(t.Data) != len(u.Data) {
		panic(fmt.Sprintf("tensor: CopyFrom size mismatch %d vs %d", len(t.Data), len(u.Data)))
	}
	copy(t.Data, u.Data)
}

// At returns the element at the given multi-index (2-D fast path).
func (t *Tensor) At(i, j int) float64 {
	return t.Data[i*t.Shape[1]+j]
}

// Set assigns the element at the given 2-D index.
func (t *Tensor) Set(i, j int, v float64) {
	t.Data[i*t.Shape[1]+j] = v
}

// Zero resets all elements to 0.
func (t *Tensor) Zero() {
	for i := range t.Data {
		t.Data[i] = 0
	}
}

// Fill sets every element to v.
func (t *Tensor) Fill(v float64) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// String renders a compact description (shape plus a data prefix), mainly
// for debugging and test failure messages.
func (t *Tensor) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Tensor%v[", t.Shape)
	n := len(t.Data)
	show := n
	if show > 8 {
		show = 8
	}
	for i := 0; i < show; i++ {
		if i > 0 {
			b.WriteString(" ")
		}
		fmt.Fprintf(&b, "%.4g", t.Data[i])
	}
	if n > show {
		fmt.Fprintf(&b, " ... (%d more)", n-show)
	}
	b.WriteString("]")
	return b.String()
}
