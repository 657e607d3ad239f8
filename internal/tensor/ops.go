package tensor

import (
	"fmt"

	"lcasgd/internal/fmath"
)

// Scale computes dst = s * a.
func Scale(dst, a *Tensor, s float64) {
	checkSameLen("Scale", dst, a)
	for i := range dst.Data {
		dst.Data[i] = s * a.Data[i]
	}
}

// Transpose returns a new tensor that is the transpose of the 2-D tensor a.
func Transpose(a *Tensor) *Tensor {
	if a.Rank() != 2 {
		panic(fmt.Sprintf("tensor: Transpose needs rank 2, got shape %v", a.Shape))
	}
	r, c := a.Shape[0], a.Shape[1]
	out := New(c, r)
	const block = 32 // cache-blocked transpose
	for ib := 0; ib < r; ib += block {
		imax := min(ib+block, r)
		for jb := 0; jb < c; jb += block {
			jmax := min(jb+block, c)
			for i := ib; i < imax; i++ {
				row := a.Data[i*c : (i+1)*c]
				for j := jb; j < jmax; j++ {
					out.Data[j*r+i] = row[j]
				}
			}
		}
	}
	return out
}

// AddRowVector computes dst = a + broadcast(v) where v has shape [c] and a
// has shape [r, c]. Used for bias addition.
func AddRowVector(dst, a, v *Tensor) {
	if a.Rank() != 2 || v.Len() != a.Shape[1] {
		panic(fmt.Sprintf("tensor: AddRowVector shapes %v %v", a.Shape, v.Shape))
	}
	checkSameLen("AddRowVector", dst, a)
	c := a.Shape[1]
	for i := 0; i < a.Shape[0]; i++ {
		base := i * c
		for j := 0; j < c; j++ {
			dst.Data[base+j] = a.Data[base+j] + v.Data[j]
		}
	}
}

// Softmax computes row-wise softmax of the 2-D tensor logits into dst with
// the standard max-subtraction trick for numerical stability.
func Softmax(dst, logits *Tensor) {
	if logits.Rank() != 2 {
		panic(fmt.Sprintf("tensor: Softmax needs rank 2, got %v", logits.Shape))
	}
	checkSameLen("Softmax", dst, logits)
	r, c := logits.Shape[0], logits.Shape[1]
	for i := 0; i < r; i++ {
		row := logits.Data[i*c : (i+1)*c]
		out := dst.Data[i*c : (i+1)*c]
		maxv := row[0]
		for _, v := range row[1:] {
			if v > maxv {
				maxv = v
			}
		}
		sum := 0.0
		for j, v := range row {
			e := fmath.Exp(v - maxv)
			out[j] = e
			sum += e
		}
		inv := 1 / sum
		for j := range out {
			out[j] *= inv
		}
	}
}

// ArgmaxRowsInto writes each row's argmax into the preallocated dst, which
// must have exactly one slot per row — the allocation-free variant the
// evaluation shards reuse across batches.
func ArgmaxRowsInto(dst []int, a *Tensor) {
	if a.Rank() != 2 || len(dst) != a.Shape[0] {
		panic(fmt.Sprintf("tensor: ArgmaxRowsInto dst len %d for shape %v", len(dst), a.Shape))
	}
	r, c := a.Shape[0], a.Shape[1]
	out := dst
	for i := 0; i < r; i++ {
		row := a.Data[i*c : (i+1)*c]
		best, bestj := row[0], 0
		for j, v := range row[1:] {
			if v > best {
				best, bestj = v, j+1
			}
		}
		out[i] = bestj
	}
}

func checkSameLen(op string, ts ...*Tensor) {
	n := len(ts[0].Data)
	for _, t := range ts[1:] {
		if len(t.Data) != n {
			panic(fmt.Sprintf("tensor: %s length mismatch %d vs %d", op, n, len(t.Data)))
		}
	}
}
