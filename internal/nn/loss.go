package nn

import (
	"fmt"
	"math"

	"lcasgd/internal/tensor"
)

// SoftmaxCrossEntropy computes the mean cross-entropy loss over a batch of
// logits [N, classes] with integer labels, and the gradient with respect to
// the logits. The softmax and loss are fused for numerical stability; the
// fused backward pass is the familiar (softmax − onehot)/N.
type SoftmaxCrossEntropy struct {
	probs  *tensor.Tensor
	grad   *tensor.Tensor // reused logits-gradient buffer
	labels []int
}

// Forward returns the mean cross-entropy loss. The labels slice is retained
// until the matching Backward; callers reusing a labels buffer must not
// rewrite it in between (the replica iteration order guarantees this).
func (l *SoftmaxCrossEntropy) Forward(logits *tensor.Tensor, labels []int) float64 {
	if logits.Rank() != 2 || logits.Shape[0] != len(labels) {
		panic(fmt.Sprintf("nn: loss shape %v vs %d labels", logits.Shape, len(labels)))
	}
	n, c := logits.Shape[0], logits.Shape[1]
	l.probs = reuse2(&l.probs, n, c)
	tensor.Softmax(l.probs, logits)
	l.labels = labels
	loss := 0.0
	for i, y := range labels {
		if y < 0 || y >= c {
			panic(fmt.Sprintf("nn: label %d out of range [0,%d)", y, c))
		}
		p := l.probs.At(i, y)
		if p < 1e-300 {
			p = 1e-300 // clamp to avoid -Inf on a catastrophically wrong prediction
		}
		loss -= math.Log(p)
	}
	return loss / float64(n)
}

// Backward returns scale·dLoss/dLogits for the most recent Forward; a
// training step seeds backpropagation with scale 1. The returned tensor is a
// reused buffer, overwritten by the next Backward call.
func (l *SoftmaxCrossEntropy) Backward(scale float64) *tensor.Tensor {
	n, c := l.probs.Shape[0], l.probs.Shape[1]
	grad := reuse2(&l.grad, n, c)
	grad.CopyFrom(l.probs)
	for i, y := range l.labels {
		grad.Data[i*c+y] -= 1
	}
	tensor.Scale(grad, grad, scale/float64(n))
	return grad
}
