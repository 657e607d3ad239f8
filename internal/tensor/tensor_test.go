package tensor

import (
	"math"
	"testing"
	"testing/quick"

	"lcasgd/internal/rng"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestNewShapeAndLen(t *testing.T) {
	x := New(3, 4, 5)
	if x.Len() != 60 || x.Rank() != 3 || x.Shape[1] != 4 {
		t.Fatalf("bad tensor: %v", x.Shape)
	}
	for _, v := range x.Data {
		if v != 0 {
			t.Fatal("New must zero-initialize")
		}
	}
}

func TestNewPanicsNegativeDim(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(2, -1)
}

func TestFromSliceRoundTrip(t *testing.T) {
	d := []float64{1, 2, 3, 4, 5, 6}
	x := FromSlice(d, 2, 3)
	if x.At(1, 2) != 6 || x.At(0, 0) != 1 {
		t.Fatalf("indexing broken: %v", x)
	}
	x.Set(0, 1, 9)
	if d[1] != 9 {
		t.Fatal("FromSlice must alias the input slice")
	}
}

func TestFromSlicePanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FromSlice([]float64{1, 2, 3}, 2, 2)
}

func TestCloneIndependence(t *testing.T) {
	x := FromSlice([]float64{1, 2}, 2)
	y := x.Clone()
	y.Data[0] = 42
	if x.Data[0] != 1 {
		t.Fatal("Clone must deep-copy")
	}
}

func TestAddSubMulScale(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3}, 3)
	b := FromSlice([]float64{4, 5, 6}, 3)
	dst := New(3)
	Add(dst, a, b)
	if dst.Data[2] != 9 {
		t.Fatalf("Add: %v", dst.Data)
	}
	Sub(dst, b, a)
	if dst.Data[0] != 3 {
		t.Fatalf("Sub: %v", dst.Data)
	}
	Scale(dst, a, -2)
	if dst.Data[2] != -6 {
		t.Fatalf("Scale: %v", dst.Data)
	}
}

func TestApplyAndAddScalar(t *testing.T) {
	a := FromSlice([]float64{1, 4, 9}, 3)
	dst := New(3)
	Apply(dst, a, math.Sqrt)
	if dst.Data[2] != 3 {
		t.Fatalf("Apply: %v", dst.Data)
	}
}

func TestReLUForwardBackward(t *testing.T) {
	x := FromSlice([]float64{-1, 0, 2}, 3)
	y := New(3)
	ReLU(y, x)
	if y.Data[0] != 0 || y.Data[1] != 0 || y.Data[2] != 2 {
		t.Fatalf("ReLU: %v", y.Data)
	}
	g := FromSlice([]float64{10, 10, 10}, 3)
	dx := New(3)
	ReLUBackward(dx, g, x)
	if dx.Data[0] != 0 || dx.Data[1] != 0 || dx.Data[2] != 10 {
		t.Fatalf("ReLUBackward: %v", dx.Data)
	}
}

// reluRef and reluBackwardRef are the branchy definitions the branch-free
// kernels replaced; the kernels must agree with them bit for bit on every
// non-NaN input.
func reluRef(dst, a []float64) {
	for i, v := range a {
		if v > 0 {
			dst[i] = v
		} else {
			dst[i] = 0
		}
	}
}

func reluBackwardRef(dst, grad, x []float64) {
	for i := range dst {
		if x[i] > 0 {
			dst[i] = grad[i]
		} else {
			dst[i] = 0
		}
	}
}

func TestReLUBitsMatchBranchReference(t *testing.T) {
	negZero := math.Copysign(0, -1)
	denorm := math.SmallestNonzeroFloat64
	rows := [][]float64{
		{0, negZero, 0, negZero},
		{denorm, -denorm, 3 * denorm, -3 * denorm, math.Float64frombits(0x000fffffffffffff)},
		{1, -1, 2.5, -2.5, 0, negZero, 1e-300, -1e-300, 1e300, -1e300},
		{math.MaxFloat64, -math.MaxFloat64, math.Inf(1), math.Inf(-1)},
	}
	g := rng.New(41)
	mixed := make([]float64, 257)
	g.FillNormal(mixed, 1)
	for i := range mixed {
		if i%3 == 0 {
			mixed[i] = 0
		}
	}
	rows = append(rows, mixed)
	for ri, x := range rows {
		n := len(x)
		// Gradients carry their own signs, zeros and denormals: the mask
		// must pass them through untouched or replace them with +0.
		grad := make([]float64, n)
		g.FillNormal(grad, 1)
		for i := range grad {
			switch i % 5 {
			case 1:
				grad[i] = negZero
			case 3:
				grad[i] = -denorm
			}
		}
		got, want := New(n), make([]float64, n)
		ReLU(got, FromSlice(x, n))
		reluRef(want, x)
		if i := bitsEqual(got.Data, want); i >= 0 {
			t.Fatalf("ReLU row %d [%d] x=%g: bits %x want %x", ri, i, x[i], math.Float64bits(got.Data[i]), math.Float64bits(want[i]))
		}
		ReLUBackward(got, FromSlice(grad, n), FromSlice(x, n))
		reluBackwardRef(want, grad, x)
		if i := bitsEqual(got.Data, want); i >= 0 {
			t.Fatalf("ReLUBackward row %d [%d] x=%g grad=%g: bits %x want %x", ri, i, x[i], grad[i], math.Float64bits(got.Data[i]), math.Float64bits(want[i]))
		}
	}
}

func TestTransposeKnown(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	at := Transpose(a)
	want := []float64{1, 4, 2, 5, 3, 6}
	for i, v := range want {
		if at.Data[i] != v {
			t.Fatalf("Transpose: got %v want %v", at.Data, want)
		}
	}
}

func TestTransposeInvolutionQuick(t *testing.T) {
	f := func(seed uint64, rRaw, cRaw uint8) bool {
		r := int(rRaw%40) + 1
		c := int(cRaw%40) + 1
		g := rng.New(seed)
		a := New(r, c)
		g.FillNormal(a.Data, 1)
		att := Transpose(Transpose(a))
		for i := range a.Data {
			if a.Data[i] != att.Data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestAddRowVector(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4}, 2, 2)
	v := FromSlice([]float64{10, 20}, 2)
	dst := New(2, 2)
	AddRowVector(dst, a, v)
	want := []float64{11, 22, 13, 24}
	for i := range want {
		if dst.Data[i] != want[i] {
			t.Fatalf("AddRowVector: %v", dst.Data)
		}
	}
}

func TestSoftmaxRowsSumToOne(t *testing.T) {
	g := rng.New(5)
	a := New(8, 10)
	g.FillNormal(a.Data, 3)
	s := New(8, 10)
	Softmax(s, a)
	for i := 0; i < 8; i++ {
		sum := 0.0
		for j := 0; j < 10; j++ {
			v := s.At(i, j)
			if v < 0 || v > 1 {
				t.Fatalf("softmax out of range: %v", v)
			}
			sum += v
		}
		if !almostEq(sum, 1, 1e-12) {
			t.Fatalf("softmax row %d sums to %v", i, sum)
		}
	}
}

func TestSoftmaxStableWithLargeLogits(t *testing.T) {
	a := FromSlice([]float64{1000, 1001, 999}, 1, 3)
	s := New(1, 3)
	Softmax(s, a)
	if s.HasNaN() {
		t.Fatal("softmax overflowed on large logits")
	}
	if s.Data[1] < s.Data[0] || s.Data[0] < s.Data[2] {
		t.Fatalf("softmax ordering wrong: %v", s.Data)
	}
}

func TestArgmaxRows(t *testing.T) {
	a := FromSlice([]float64{1, 5, 2, 9, 0, 3}, 2, 3)
	got := ArgmaxRows(a)
	if got[0] != 1 || got[1] != 0 {
		t.Fatalf("ArgmaxRows: %v", got)
	}
	into := []int{9, 9}
	ArgmaxRowsInto(into, a)
	if into[0] != 1 || into[1] != 0 {
		t.Fatalf("ArgmaxRowsInto: %v", into)
	}
}

func TestSumMeanDotNorm(t *testing.T) {
	a := FromSlice([]float64{3, 4}, 2)
	if a.Sum() != 7 || a.Mean() != 3.5 {
		t.Fatal("Sum/Mean broken")
	}
	if a.MaxAbs() != 4 {
		t.Fatal("MaxAbs broken")
	}
}

func TestHasNaN(t *testing.T) {
	a := FromSlice([]float64{1, math.NaN()}, 2)
	if !a.HasNaN() {
		t.Fatal("HasNaN missed NaN")
	}
	b := FromSlice([]float64{1, math.Inf(1)}, 2)
	if !b.HasNaN() {
		t.Fatal("HasNaN missed Inf")
	}
	c := FromSlice([]float64{1, 2}, 2)
	if c.HasNaN() {
		t.Fatal("HasNaN false positive")
	}
}
