package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("seeds 1 and 2 collided %d/100 times", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	c1 := parent.Split()
	c2 := parent.Split()
	if c1.Uint64() == c2.Uint64() {
		t.Fatal("sibling splits produced identical first output")
	}
}

func TestSplitLabeledStable(t *testing.T) {
	a, b := New(9), New(9)
	ca := a.SplitLabeled(3)
	cb := b.SplitLabeled(3)
	for i := 0; i < 100; i++ {
		if ca.Uint64() != cb.Uint64() {
			t.Fatalf("labeled children diverged at step %d", i)
		}
	}
}

func TestSplitLabeledDistinctLabels(t *testing.T) {
	a, b := New(9), New(9)
	if a.SplitLabeled(0).Uint64() == b.SplitLabeled(1).Uint64() {
		t.Fatal("labels 0 and 1 produced identical streams")
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(11)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(13)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(17)
	seen := make(map[int]int)
	for i := 0; i < 60000; i++ {
		v := r.Intn(6)
		if v < 0 || v >= 6 {
			t.Fatalf("Intn(6) = %d out of range", v)
		}
		seen[v]++
	}
	for k := 0; k < 6; k++ {
		if seen[k] < 8000 || seen[k] > 12000 {
			t.Fatalf("Intn(6) bucket %d count %d far from uniform", k, seen[k])
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for Intn(0)")
		}
	}()
	New(1).Intn(0)
}

func TestNormalMoments(t *testing.T) {
	r := New(19)
	const n = 200000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		v := r.Normal()
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean) > 0.01 {
		t.Fatalf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Fatalf("normal variance = %v, want ~1", variance)
	}
}

func TestLogNormalPositive(t *testing.T) {
	r := New(23)
	for i := 0; i < 10000; i++ {
		if v := r.LogNormal(0, 0.5); v <= 0 {
			t.Fatalf("lognormal produced non-positive %v", v)
		}
	}
}

func TestLogNormalMedian(t *testing.T) {
	r := New(29)
	const n = 100001
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = r.LogNormal(1.0, 0.3)
	}
	// Median of lognormal(mu, sigma) is exp(mu).
	below := 0
	target := math.Exp(1.0)
	for _, v := range vals {
		if v < target {
			below++
		}
	}
	frac := float64(below) / n
	if math.Abs(frac-0.5) > 0.01 {
		t.Fatalf("lognormal median fraction below exp(mu) = %v, want ~0.5", frac)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(31)
	p := r.Perm(100)
	seen := make([]bool, 100)
	for _, v := range p {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("not a permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestPermPropertyQuick(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%64) + 1
		p := New(seed).Perm(n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestShufflePreservesMultiset(t *testing.T) {
	r := New(37)
	idx := []int{5, 5, 1, 2, 3}
	r.Shuffle(idx)
	counts := map[int]int{}
	for _, v := range idx {
		counts[v]++
	}
	if counts[5] != 2 || counts[1] != 1 || counts[2] != 1 || counts[3] != 1 {
		t.Fatalf("shuffle changed elements: %v", idx)
	}
}

func TestFillNormalLength(t *testing.T) {
	r := New(41)
	buf := make([]float64, 1000)
	r.FillNormal(buf, 2.0)
	var sumsq float64
	for _, v := range buf {
		sumsq += v * v
	}
	sd := math.Sqrt(sumsq / 1000)
	if sd < 1.5 || sd > 2.5 {
		t.Fatalf("FillNormal stddev = %v, want ~2", sd)
	}
}

func TestUint64PropertyNonSticky(t *testing.T) {
	// Property: over any window of 64 outputs, the generator never repeats
	// the same value 64 times (i.e. it is not stuck).
	f := func(seed uint64) bool {
		r := New(seed)
		first := r.Uint64()
		for i := 0; i < 63; i++ {
			if r.Uint64() != first {
				return true
			}
		}
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkNormal(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Normal()
	}
}

// TestStateRoundTripPositionExact pins the snapshot contract: capturing
// State mid-stream and restoring it resumes at exactly the next draw, for
// however long the tail runs.
func TestStateRoundTripPositionExact(t *testing.T) {
	r := New(0xFEED)
	for i := 0; i < 37; i++ {
		r.Uint64()
	}
	st := r.State()
	want := make([]uint64, 100)
	for i := range want {
		want[i] = r.Uint64()
	}
	fresh := New(1)
	fresh.SetState(st)
	for i, w := range want {
		if got := fresh.Uint64(); got != w {
			t.Fatalf("draw %d after restore: %x, want %x", i, got, w)
		}
	}
}

// TestStateRoundTripSplitStreams extends the contract to derived streams:
// restoring a parent mid-stream reproduces the same Split and SplitLabeled
// children (and their own draws), and restoring a child directly resumes
// that child's position.
func TestStateRoundTripSplitStreams(t *testing.T) {
	parent := New(0xBEEF)
	parent.Float64()
	st := parent.State()
	childA := parent.SplitLabeled(7)
	childB := parent.Split()
	wantA, wantB := childA.Uint64(), childB.Uint64()

	parent2 := New(2)
	parent2.SetState(st)
	gotA := parent2.SplitLabeled(7).Uint64()
	gotB := parent2.Split().Uint64()
	if gotA != wantA || gotB != wantB {
		t.Fatalf("derived streams diverged after restore: %x/%x vs %x/%x", gotA, gotB, wantA, wantB)
	}

	// Child-level round trip, mid-child-stream.
	child := New(5).SplitLabeled(3)
	for i := 0; i < 11; i++ {
		child.Normal()
	}
	cst := child.State()
	want := child.Uint64()
	restored := New(9)
	restored.SetState(cst)
	if got := restored.Uint64(); got != want {
		t.Fatalf("child stream draw after restore: %x, want %x", got, want)
	}
}

func TestSetStateRejectsZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on all-zero state")
		}
	}()
	New(1).SetState([4]uint64{})
}
