package cluster

import (
	"math"
	"testing"
	"testing/quick"

	"lcasgd/internal/rng"
	"lcasgd/internal/snapshot"
)

func TestCostModelValidate(t *testing.T) {
	if err := CIFARCostModel().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := ImageNetCostModel().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := CostModel{MeanComp: -1}
	if bad.Validate() == nil {
		t.Fatal("negative mean accepted")
	}
	bad2 := CIFARCostModel()
	bad2.StragglerProb = 2
	if bad2.Validate() == nil {
		t.Fatal("probability > 1 accepted")
	}
}

func TestSamplerMeanCloseToConfigured(t *testing.T) {
	m := CostModel{MeanComp: 30, MeanComm: 3, Sigma: 0.2}
	s := m.NewSampler(1, rng.New(1))
	const n = 50000
	var sum float64
	for i := 0; i < n; i++ {
		sum += s.Comp(0)
	}
	mean := sum / n
	if math.Abs(mean-30)/30 > 0.03 {
		t.Fatalf("comp mean %v, want ~30", mean)
	}
	sum = 0
	for i := 0; i < n; i++ {
		sum += s.Comm(0)
	}
	mean = sum / n
	if math.Abs(mean-3)/3 > 0.03 {
		t.Fatalf("comm mean %v, want ~3", mean)
	}
}

func TestSamplerPositiveQuick(t *testing.T) {
	f := func(seed uint64) bool {
		s := CIFARCostModel().NewSampler(4, rng.New(seed))
		for i := 0; i < 100; i++ {
			if s.Comp(i%4) <= 0 || s.Comm(i%4) < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestSamplerHeterogeneity(t *testing.T) {
	m := CostModel{MeanComp: 30, MeanComm: 3, Sigma: 0.01, Heterogeneity: 1.0}
	s := m.NewSampler(16, rng.New(7))
	lo, hi := math.Inf(1), math.Inf(-1)
	for w := 0; w < 16; w++ {
		v := s.mult[w]
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if hi-lo < 0.3 {
		t.Fatalf("heterogeneity spread too small: [%v, %v]", lo, hi)
	}
	if lo < 0.5 || hi > 1.5 {
		t.Fatalf("multipliers outside configured band: [%v, %v]", lo, hi)
	}
}

func TestSamplerStragglers(t *testing.T) {
	m := CostModel{MeanComp: 10, MeanComm: 1, Sigma: 0.01, StragglerProb: 0.5, StragglerFactor: 10}
	s := m.NewSampler(1, rng.New(9))
	slow := 0
	const n = 2000
	for i := 0; i < n; i++ {
		if s.Comp(0) > 50 {
			slow++
		}
	}
	frac := float64(slow) / n
	if frac < 0.4 || frac > 0.6 {
		t.Fatalf("straggler fraction %v, want ~0.5", frac)
	}
}

func TestSamplerPhaseScalesDrawsExactly(t *testing.T) {
	// Phases multiply the drawn value without consuming randomness, so a
	// phased sampler tracks an unphased twin draw for draw.
	mk := func() *Sampler {
		m := CostModel{MeanComp: 30, MeanComm: 3, Sigma: 0.2}
		return m.NewSampler(2, rng.New(5))
	}
	a, b := mk(), mk()
	a.SetPhase(2.5, 3)
	for i := 0; i < 50; i++ {
		if got, want := a.Comp(i%2), 2.5*b.Comp(i%2); math.Abs(got-want) > 1e-12 {
			t.Fatalf("phased comp draw %d: %v, want %v", i, got, want)
		}
		if got, want := a.Comm(i%2), 3*b.Comm(i%2); math.Abs(got-want) > 1e-12 {
			t.Fatalf("phased comm draw %d: %v, want %v", i, got, want)
		}
	}
	// Clearing the phase realigns the samplers bit-exactly: the streams
	// never diverged.
	a.SetPhase(1, 1)
	for i := 0; i < 50; i++ {
		if a.Comp(i%2) != b.Comp(i%2) || a.Comm(i%2) != b.Comm(i%2) {
			t.Fatalf("streams diverged after phase cleared (draw %d)", i)
		}
	}
}

func TestSamplerWorkerPhaseTargetsOneWorker(t *testing.T) {
	m := CostModel{MeanComp: 30, MeanComm: 3, Sigma: 0.2}
	mk := func() *Sampler { return m.NewSampler(2, rng.New(5)) }
	a, b := mk(), mk()
	a.SetWorkerPhase(1, 4, 1)
	for i := 0; i < 40; i++ {
		if a.Comp(0) != b.Comp(0) {
			t.Fatal("worker phase leaked onto worker 0")
		}
		if got, want := a.Comp(1), 4*b.Comp(1); math.Abs(got-want) > 1e-12 {
			t.Fatalf("worker 1 comp %v, want %v", got, want)
		}
	}
	a.SetPhase(3, 2)
	for i := 0; i < 40; i++ {
		if got, want := a.Comp(1), 12*b.Comp(1); got != want {
			t.Fatalf("phases must compose: worker 1 comp %v, want %v", got, want)
		}
		if got, want := a.Comm(1), 2*b.Comm(1); got != want {
			t.Fatalf("phases must compose: worker 1 comm %v, want %v", got, want)
		}
	}
}

func TestSamplerStragglerStatsUnchangedByPhase(t *testing.T) {
	// Straggler injection draws its coin after the lognormal, before phase
	// scaling, so a congestion phase shifts the whole distribution without
	// altering the straggler fraction.
	m := CostModel{MeanComp: 10, MeanComm: 1, Sigma: 0.01, StragglerProb: 0.5, StragglerFactor: 10}
	s := m.NewSampler(1, rng.New(9))
	s.SetPhase(5, 1)
	slow := 0
	const n = 2000
	for i := 0; i < n; i++ {
		if s.Comp(0) > 5*50 { // straggler threshold, phase-scaled
			slow++
		}
	}
	frac := float64(slow) / n
	if frac < 0.4 || frac > 0.6 {
		t.Fatalf("straggler fraction %v under phase, want ~0.5", frac)
	}
}

func TestSamplerPhasePanicsOnBadScales(t *testing.T) {
	s := CIFARCostModel().NewSampler(1, rng.New(1))
	for _, f := range []func(){
		func() { s.SetPhase(0, 1) },
		func() { s.SetPhase(1, -2) },
		func() { s.SetWorkerPhase(0, 0, 1) },
		func() { s.SetPhase(math.NaN(), 1) },
		func() { s.SetPhase(1, math.Inf(1)) },
		func() { s.SetWorkerPhase(0, 1e52, 1) },
		func() { s.SetWorkerPhase(0, 1, math.Nextafter(MaxPhaseScale, math.Inf(1))) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic for a phase scale outside (0, MaxPhaseScale]")
				}
			}()
			f()
		}()
	}
	s.SetPhase(MaxPhaseScale, MaxPhaseScale)
	s.SetWorkerPhase(0, MaxPhaseScale, MaxPhaseScale)
}

func TestSamplerZeroCommShortCircuits(t *testing.T) {
	m := CostModel{MeanComp: 10, MeanComm: 0, Sigma: 0.2}
	s := m.NewSampler(1, rng.New(1))
	if s.Comm(0) != 0 {
		t.Fatal("zero-comm model must sample 0")
	}
}

func TestSamplerDeterministic(t *testing.T) {
	a := CIFARCostModel().NewSampler(4, rng.New(42))
	b := CIFARCostModel().NewSampler(4, rng.New(42))
	for i := 0; i < 100; i++ {
		if a.Comp(i%4) != b.Comp(i%4) {
			t.Fatal("samplers with equal seeds diverged")
		}
	}
}

func TestSamplerPanicsOnBadInput(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	CIFARCostModel().NewSampler(0, rng.New(1))
}

// TestSamplerSnapshotRoundTrip pins cost-stream resume: a restored sampler
// draws the same future costs — including scenario phase multipliers — as
// the one that wrote the snapshot.
func TestSamplerSnapshotRoundTrip(t *testing.T) {
	model := CIFARCostModel()
	a := model.NewSampler(4, rng.New(3))
	a.SetPhase(2, 3)
	a.SetWorkerPhase(1, 0.5, 4)
	for i := 0; i < 25; i++ {
		a.Comp(i % 4)
		a.Comm(i % 4)
	}

	w := snapshot.NewWriter()
	a.Walk(w.Codec())
	b := model.NewSampler(4, rng.New(3)) // same construction, stale position/phases
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
	for i := 0; i < 50; i++ {
		m := i % 4
		if ca, cb := a.Comp(m), b.Comp(m); ca != cb {
			t.Fatalf("comp draw %d differs: %x vs %x", i, ca, cb)
		}
		if ca, cb := a.Comm(m), b.Comm(m); ca != cb {
			t.Fatalf("comm draw %d differs: %x vs %x", i, ca, cb)
		}
	}
}
