package tensor

import (
	"math"
	"testing"
	"testing/quick"

	"lcasgd/internal/rng"
)

// naiveMatMul is the reference ijk implementation the optimized kernels are
// validated against.
func naiveMatMul(a, b *Tensor) *Tensor {
	m, k, n := a.Shape[0], a.Shape[1], b.Shape[1]
	out := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for p := 0; p < k; p++ {
				s += a.At(i, p) * b.At(p, j)
			}
			out.Set(i, j, s)
		}
	}
	return out
}

func randMat(g *rng.RNG, r, c int) *Tensor {
	t := New(r, c)
	g.FillNormal(t.Data, 1)
	return t
}

// mul, mulTA and mulTB return a @ b, aᵀ @ b and a @ bᵀ in a fresh tensor
// through the Into kernels.
func mul(a, b *Tensor) *Tensor {
	out := New(a.Shape[0], b.Shape[1])
	MatMulInto(out, a, b)
	return out
}

func mulTA(a, b *Tensor) *Tensor {
	out := New(a.Shape[1], b.Shape[1])
	MatMulTransAInto(out, a, b)
	return out
}

func mulTB(a, b *Tensor) *Tensor {
	out := New(a.Shape[0], b.Shape[0])
	MatMulTransBInto(out, a, b)
	return out
}

func maxDiff(a, b *Tensor) float64 {
	m := 0.0
	for i := range a.Data {
		if d := math.Abs(a.Data[i] - b.Data[i]); d > m {
			m = d
		}
	}
	return m
}

func TestMatMulKnown(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4}, 2, 2)
	b := FromSlice([]float64{5, 6, 7, 8}, 2, 2)
	c := mul(a, b)
	want := []float64{19, 22, 43, 50}
	for i, v := range want {
		if c.Data[i] != v {
			t.Fatalf("MatMulInto: got %v want %v", c.Data, want)
		}
	}
}

func TestMatMulIdentity(t *testing.T) {
	g := rng.New(3)
	a := randMat(g, 7, 7)
	eye := New(7, 7)
	for i := 0; i < 7; i++ {
		eye.Set(i, i, 1)
	}
	if maxDiff(mul(a, eye), a) != 0 {
		t.Fatal("A @ I != A")
	}
	if maxDiff(mul(eye, a), a) != 0 {
		t.Fatal("I @ A != A")
	}
}

func TestMatMulAgainstNaiveQuick(t *testing.T) {
	f := func(seed uint64, mr, kr, nr uint8) bool {
		m, k, n := int(mr%16)+1, int(kr%16)+1, int(nr%16)+1
		g := rng.New(seed)
		a := randMat(g, m, k)
		b := randMat(g, k, n)
		return maxDiff(mul(a, b), naiveMatMul(a, b)) < 1e-10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestMatMulShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on inner-dim mismatch")
		}
	}()
	MatMulInto(New(2, 2), New(2, 3), New(4, 2))
}

func TestMatMulInto(t *testing.T) {
	g := rng.New(21)
	a := randMat(g, 5, 6)
	b := randMat(g, 6, 4)
	dst := New(5, 4)
	dst.Fill(99) // must be overwritten, not accumulated
	MatMulInto(dst, a, b)
	if maxDiff(dst, naiveMatMul(a, b)) > 1e-10 {
		t.Fatal("MatMulInto mismatch")
	}
}

func TestMatMulTransA(t *testing.T) {
	g := rng.New(33)
	a := randMat(g, 8, 5) // aᵀ is 5x8
	b := randMat(g, 8, 6)
	got := mulTA(a, b)
	want := mul(Transpose(a), b)
	if maxDiff(got, want) > 1e-10 {
		t.Fatal("MatMulTransA mismatch")
	}
}

func TestMatMulTransB(t *testing.T) {
	g := rng.New(35)
	a := randMat(g, 4, 7)
	b := randMat(g, 9, 7) // bᵀ is 7x9
	got := mulTB(a, b)
	want := mul(a, Transpose(b))
	if maxDiff(got, want) > 1e-10 {
		t.Fatal("MatMulTransB mismatch")
	}
}

// TestIntoVariantsMatchAllocating pins the transposed Into kernels to the
// naive chains bit for bit from a poisoned destination: they overwrite dst,
// never accumulate into it.
func TestIntoVariantsMatchAllocating(t *testing.T) {
	a := New(3, 4)
	b := New(3, 5)
	d := New(6, 4)
	for i := range a.Data {
		a.Data[i] = float64(i%7) - 3
	}
	for i := range b.Data {
		b.Data[i] = float64(i%5) - 2
	}
	for i := range d.Data {
		d.Data[i] = float64(i%4) - 2
	}

	want := naiveMatMulTransA(a, b) // [4,5]
	got := New(4, 5)
	got.Fill(9) // poison: Into must fully overwrite
	MatMulTransAInto(got, a, b)
	for i := range want.Data {
		if want.Data[i] != got.Data[i] {
			t.Fatalf("MatMulTransAInto[%d] %v != %v", i, got.Data[i], want.Data[i])
		}
	}

	wantB := naiveMatMulTransB(a, d) // [3,6]
	gotB := New(3, 6)
	gotB.Fill(9)
	MatMulTransBInto(gotB, a, d)
	for i := range wantB.Data {
		if wantB.Data[i] != gotB.Data[i] {
			t.Fatalf("MatMulTransBInto[%d] %v != %v", i, gotB.Data[i], wantB.Data[i])
		}
	}
}

func TestMatMulAssociativityQuick(t *testing.T) {
	// (AB)C == A(BC) within float tolerance for modest sizes.
	f := func(seed uint64) bool {
		g := rng.New(seed)
		a := randMat(g, 6, 5)
		b := randMat(g, 5, 7)
		c := randMat(g, 7, 4)
		left := mul(mul(a, b), c)
		right := mul(a, mul(b, c))
		return maxDiff(left, right) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
