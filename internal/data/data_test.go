package data

import (
	"math"
	"testing"

	"lcasgd/internal/rng"
	"lcasgd/internal/snapshot"
	"lcasgd/internal/tensor"
)

func TestGenerateShapes(t *testing.T) {
	tr, te := Generate(CIFARConfig())
	if tr.Len() != 2000 || te.Len() != 400 {
		t.Fatalf("sizes %d/%d", tr.Len(), te.Len())
	}
	if tr.Features() != 3*8*8 || tr.Classes != 10 {
		t.Fatalf("features %d classes %d", tr.Features(), tr.Classes)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, _ := Generate(CIFARConfig())
	b, _ := Generate(CIFARConfig())
	for i := range a.X.Data {
		if a.X.Data[i] != b.X.Data[i] {
			t.Fatal("dataset generation is not deterministic")
		}
	}
}

func TestGenerateCached(t *testing.T) {
	cfg := CIFARConfig()
	cfg.Train, cfg.Test = 100, 20 // keep the cached entry small
	cfg.Seed = 0xCAC8E            // private seed so other tests don't share the entry
	tr1, te1 := GenerateCached(cfg)
	tr2, te2 := GenerateCached(cfg)
	if tr1 != tr2 || te1 != te2 {
		t.Fatal("GenerateCached did not return the memoized datasets")
	}
	fresh, _ := Generate(cfg)
	for i := range fresh.X.Data {
		if tr1.X.Data[i] != fresh.X.Data[i] {
			t.Fatal("cached dataset differs from a fresh Generate")
		}
	}
	other := cfg
	other.Seed++
	tr3, _ := GenerateCached(other)
	if tr3 == tr1 {
		t.Fatal("different configs shared a cache entry")
	}
}

func TestGenerateCachedConcurrent(t *testing.T) {
	cfg := CIFARConfig()
	cfg.Train, cfg.Test = 100, 20
	cfg.Seed = 0xCAC8E + 100
	const n = 8
	got := make([]*Dataset, n)
	done := make(chan int)
	for i := 0; i < n; i++ {
		go func(i int) {
			got[i], _ = GenerateCached(cfg)
			done <- i
		}(i)
	}
	for i := 0; i < n; i++ {
		<-done
	}
	for i := 1; i < n; i++ {
		if got[i] != got[0] {
			t.Fatal("concurrent GenerateCached returned distinct datasets")
		}
	}
}

func TestTrainTestDiffer(t *testing.T) {
	tr, te := Generate(CIFARConfig())
	same := true
	for i := 0; i < te.Features(); i++ {
		if tr.X.Data[i] != te.X.Data[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("train and test splits share samples")
	}
}

func TestClassesBalanced(t *testing.T) {
	tr, _ := Generate(CIFARConfig())
	counts := make([]int, tr.Classes)
	for _, y := range tr.Y {
		counts[y]++
	}
	for c, n := range counts {
		if n != tr.Len()/tr.Classes {
			t.Fatalf("class %d has %d samples, want %d", c, n, tr.Len()/tr.Classes)
		}
	}
}

func TestTaskIsLearnableByNearestPrototype(t *testing.T) {
	// A nearest-class-mean classifier fit on train should beat chance on
	// test by a wide margin — i.e. the task carries signal.
	tr, te := Generate(CIFARConfig())
	f := tr.Features()
	means := make([][]float64, tr.Classes)
	counts := make([]int, tr.Classes)
	for c := range means {
		means[c] = make([]float64, f)
	}
	for i, y := range tr.Y {
		row := tr.X.Data[i*f : (i+1)*f]
		for j, v := range row {
			means[y][j] += v
		}
		counts[y]++
	}
	for c := range means {
		for j := range means[c] {
			means[c][j] /= float64(counts[c])
		}
	}
	correct := 0
	for i, y := range te.Y {
		row := te.X.Data[i*f : (i+1)*f]
		best, bestC := math.Inf(1), -1
		for c := range means {
			d := 0.0
			for j, v := range row {
				diff := v - means[c][j]
				d += diff * diff
			}
			if d < best {
				best, bestC = d, c
			}
		}
		if bestC == y {
			correct++
		}
	}
	acc := float64(correct) / float64(te.Len())
	if acc < 0.5 {
		t.Fatalf("nearest-mean test accuracy %.3f; task carries too little signal", acc)
	}
	if acc > 0.999 {
		t.Fatalf("nearest-mean test accuracy %.3f; task is trivially separable (no error floor)", acc)
	}
}

func TestImageNetConfigBigger(t *testing.T) {
	tr, _ := Generate(ImageNetConfig())
	if tr.Classes != 27 || tr.Features() != 3*12*12 {
		t.Fatalf("imagenet-like config wrong: %d classes %d features", tr.Classes, tr.Features())
	}
}

func TestBatchGather(t *testing.T) {
	tr, _ := Generate(CIFARConfig())
	x, y := tr.Batch([]int{5, 0})
	f := tr.Features()
	for j := 0; j < f; j++ {
		if x.Data[j] != tr.X.Data[5*f+j] {
			t.Fatal("batch row 0 mismatch")
		}
		if x.Data[f+j] != tr.X.Data[j] {
			t.Fatal("batch row 1 mismatch")
		}
	}
	if y[0] != tr.Y[5] || y[1] != tr.Y[0] {
		t.Fatal("batch labels mismatch")
	}
}

func TestBatchPanicsOutOfRange(t *testing.T) {
	tr, _ := Generate(CIFARConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tr.Batch([]int{tr.Len()})
}

func TestBatchIterCoversEpoch(t *testing.T) {
	tr, _ := Generate(CIFARConfig())
	it := NewBatchIter(tr, 100, rng.New(1))
	if it.BatchesPerEpoch() != 20 {
		t.Fatalf("batches per epoch %d", it.BatchesPerEpoch())
	}
	x, y := tensor.New(100, tr.Features()), make([]int, 100)
	seenLabels := 0
	for i := 0; i < it.BatchesPerEpoch(); i++ {
		it.NextInto(x, y)
		seenLabels += len(y)
	}
	if seenLabels != 2000 {
		t.Fatalf("epoch covered %d samples", seenLabels)
	}
	if it.Epoch != 0 {
		t.Fatalf("epoch counter %d before wrap", it.Epoch)
	}
	it.NextInto(x, y)
	if it.Epoch != 1 {
		t.Fatalf("epoch counter %d after wrap", it.Epoch)
	}
}

func TestBatchIterReshuffles(t *testing.T) {
	tr, _ := Generate(CIFARConfig())
	it := NewBatchIter(tr, tr.Len(), rng.New(2))
	x := tensor.New(tr.Len(), tr.Features())
	y1, y2 := make([]int, tr.Len()), make([]int, tr.Len())
	it.NextInto(x, y1)
	it.NextInto(x, y2)
	diff := false
	for i := range y1 {
		if y1[i] != y2[i] {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("second epoch order identical to first (no reshuffle)")
	}
}

func TestBatchIterBadSizePanics(t *testing.T) {
	tr, _ := Generate(CIFARConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewBatchIter(tr, 0, rng.New(1))
}

func TestGenerateDegeneratePanics(t *testing.T) {
	cfg := CIFARConfig()
	cfg.Classes = 1
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Generate(cfg)
}

func TestBatchIntoMatchesBatch(t *testing.T) {
	tr, _ := Generate(Config{
		Classes: 3, C: 1, H: 4, W: 4, Train: 30, Test: 6,
		NoiseSigma: 1, SignalScale: 0.5, Smoothing: 1, Seed: 5,
	})
	idx := []int{3, 0, 17, 17, 9}
	wantX, wantY := tr.Batch(idx)
	x := tensor.New(len(idx), tr.Features())
	y := make([]int, len(idx))
	tr.BatchInto(x, y, idx)
	for i := range wantX.Data {
		if x.Data[i] != wantX.Data[i] {
			t.Fatalf("BatchInto x[%d] differs", i)
		}
	}
	for i := range wantY {
		if y[i] != wantY[i] {
			t.Fatalf("BatchInto y[%d] differs", i)
		}
	}
}

func TestBatchIntoShapePanics(t *testing.T) {
	tr, _ := Generate(Config{
		Classes: 3, C: 1, H: 4, W: 4, Train: 30, Test: 6,
		NoiseSigma: 1, SignalScale: 0.5, Smoothing: 1, Seed: 5,
	})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on mis-shaped destination")
		}
	}()
	tr.BatchInto(tensor.New(2, tr.Features()), make([]int, 3), []int{0, 1, 2})
}

func TestNextIntoZeroAllocSteadyState(t *testing.T) {
	tr, _ := Generate(Config{
		Classes: 3, C: 1, H: 4, W: 4, Train: 30, Test: 6,
		NoiseSigma: 1, SignalScale: 0.5, Smoothing: 1, Seed: 5,
	})
	it := NewBatchIter(tr, 10, rng.New(1))
	x := tensor.New(10, tr.Features())
	y := make([]int, 10)
	it.NextInto(x, y)
	// Spans epoch wraps: the in-place reshuffle must not allocate either.
	if a := testing.AllocsPerRun(20, func() { it.NextInto(x, y) }); a != 0 {
		t.Fatalf("steady-state NextInto allocates %v times, want 0", a)
	}
}

// TestBatchIterSnapshotRoundTrip pins position-exact resume of a worker's
// private batch order: a restored iterator yields the same remaining
// batches — across a reshuffle boundary — as the one that wrote the
// snapshot.
func TestBatchIterSnapshotRoundTrip(t *testing.T) {
	cfg := CIFARConfig()
	cfg.Train, cfg.Test = 100, 20
	ds, _ := Generate(cfg)
	a := NewBatchIter(ds, 30, rng.New(11))
	x := tensor.New(30, ds.Features())
	y := make([]int, 30)
	for i := 0; i < 5; i++ { // crosses an epoch wrap (100/30)
		a.NextInto(x, y)
	}

	w := snapshot.NewWriter()
	a.Walk(w.Codec())
	b := NewBatchIter(ds, 30, rng.New(99)) // different seed: all state restored
	r, err := snapshot.NewReader(w.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if b.Walk(r.Codec()); r.Err() != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if b.Epoch != a.Epoch {
		t.Fatalf("epoch %d vs %d", b.Epoch, a.Epoch)
	}

	x2 := tensor.New(30, ds.Features())
	y2 := make([]int, 30)
	for i := 0; i < 10; i++ { // several more wraps: the shuffle RNG must match too
		a.NextInto(x, y)
		b.NextInto(x2, y2)
		for j := range y {
			if y[j] != y2[j] {
				t.Fatalf("batch %d label %d differs: %d vs %d", i, j, y[j], y2[j])
			}
		}
		for j, v := range x.Data {
			if x2.Data[j] != v {
				t.Fatalf("batch %d pixel %d differs", i, j)
			}
		}
	}
}

// TestBatchIterRestoreRejectsMismatch ensures a snapshot from a different
// dataset size cannot be loaded.
func TestBatchIterRestoreRejectsMismatch(t *testing.T) {
	cfg := CIFARConfig()
	cfg.Train, cfg.Test = 100, 20
	ds, _ := Generate(cfg)
	a := NewBatchIter(ds, 10, rng.New(1))
	w := snapshot.NewWriter()
	a.Walk(w.Codec())
	cfg.Train = 60
	ds2, _ := Generate(cfg)
	b := NewBatchIter(ds2, 10, rng.New(1))
	r, err := snapshot.NewReader(w.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if b.Walk(r.Codec()); r.Err() == nil {
		t.Fatal("mismatched dataset size accepted")
	}
}
