package ps

import (
	"sort"
	"sync"
	"testing"

	"lcasgd/internal/scenario"
)

// allAlgos is the full algorithm matrix: the paper's five plus the post-
// paper additions, including the decentralized AD-PSGD — every equivalence,
// scenario, resume and fingerprint test quantifies over it.
var allAlgos = []Algo{SGD, SSGD, ASGD, SAASGD, DCASGD, LCASGD, ADPSGD}

// equivalenceScenarios are the non-trivial timelines every algorithm must
// stay backend-bit-identical under: overlapping crashes with recoveries on
// top of a periodic congestion phase, and an elastic fleet that starts
// small, grows, loses its first worker, and gets it back. Times are tuned
// to the tiny test environment (iterations ~30 virtual ms, runs a few
// hundred ms).
func equivalenceScenarios() []*scenario.Scenario {
	return []*scenario.Scenario{
		{
			Name: "crash-recovery",
			Events: []scenario.Event{
				{At: 40, Kind: scenario.Crash, Worker: 1},
				{At: 45, Kind: scenario.Crash, Worker: 0},
				{At: 60, Period: 90, Kind: scenario.PhaseShift, Worker: -1, CompScale: 1.8, CommScale: 2.2},
				{At: 70, Kind: scenario.Crash, Worker: 2},
				{At: 95, Kind: scenario.Recover, Worker: 0},
				{At: 105, Period: 90, Kind: scenario.PhaseShift, Worker: -1, CompScale: 1, CommScale: 1},
				{At: 110, Kind: scenario.Recover, Worker: 1},
				{At: 150, Kind: scenario.Recover, Worker: 2},
			},
		},
		{
			Name:           "elastic",
			InitialWorkers: 2,
			Events: []scenario.Event{
				{At: 30, Kind: scenario.Join, Worker: 2},
				{At: 55, Kind: scenario.PhaseShift, Worker: 0, CompScale: 2.5, CommScale: 1.5},
				{At: 60, Kind: scenario.Join, Worker: 3},
				{At: 120, Kind: scenario.Leave, Worker: 0},
				{At: 200, Kind: scenario.Join, Worker: 0},
			},
		},
		{
			// Network partitions overlapping a crash: worker 1 computes
			// behind a cut while worker 2 is down, then both rejoin; worker
			// 0 rides a periodic partition/heal cycle for the rest of the
			// run (on a one-replica SGD fleet only the worker-0 events
			// survive compilation, so the budget still completes).
			Name: "partition-heal",
			Events: []scenario.Event{
				{At: 50, Kind: scenario.Partition, Worker: 1},
				{At: 80, Kind: scenario.Crash, Worker: 2},
				{At: 130, Kind: scenario.Heal, Worker: 1},
				{At: 160, Kind: scenario.Recover, Worker: 2},
				{At: 200, Period: 150, Kind: scenario.Partition, Worker: 0},
				{At: 260, Period: 150, Kind: scenario.Heal, Worker: 0},
			},
		},
	}
}

// runObserved runs env on an engine the test can look into: at is called on
// the event loop right after every curve point's hand-off (the final one
// included) with the recorder holding the point's frozen state, and once more
// with a nil recorder when the run has ended.
func runObserved(env Env, at func(e *Engine, r *recorder)) Result {
	env.Cfg = env.Cfg.withDefaults()
	e := newEngine(env, strategyFor(env.Cfg))
	evalHandoff = func(r *recorder, _ *server) { at(e, r) }
	defer func() { evalHandoff = nil }()
	res := e.run()
	at(e, nil)
	return res
}

// assertBackendEquivalent runs env on both backends and requires the
// Results to match bit for bit.
func assertBackendEquivalent(t *testing.T, label string, mk func() Env) {
	t.Helper()
	seq := mk()
	seq.Cfg.Backend = BackendSequential
	conc := mk()
	conc.Cfg.Backend = BackendConcurrent
	a, b := Run(seq), Run(conc)
	assertResultsEqual(t, label, a, b)
}

// assertResultsEqual requires two Results to match bit for bit on every
// deterministic field (wall-clock predictor timings excluded — they measure
// the host, not the run).
func assertResultsEqual(t *testing.T, label string, a, b Result) {
	t.Helper()
	if len(a.Points) != len(b.Points) {
		t.Fatalf("%s: point counts differ: %d vs %d", label, len(a.Points), len(b.Points))
	}
	for i := range a.Points {
		if a.Points[i] != b.Points[i] {
			t.Fatalf("%s: point %d differs: %+v vs %+v", label, i, a.Points[i], b.Points[i])
		}
	}
	if a.VirtualMs != b.VirtualMs {
		t.Fatalf("%s: virtual clocks differ: %v vs %v", label, a.VirtualMs, b.VirtualMs)
	}
	if a.Updates != b.Updates {
		t.Fatalf("%s: update counts differ: %d vs %d", label, a.Updates, b.Updates)
	}
	if a.MeanStaleness != b.MeanStaleness || a.MaxStaleness != b.MaxStaleness {
		t.Fatalf("%s: staleness differs: (%v,%d) vs (%v,%d)",
			label, a.MeanStaleness, a.MaxStaleness, b.MeanStaleness, b.MaxStaleness)
	}
	if a.ScenarioEvents != b.ScenarioEvents {
		t.Fatalf("%s: applied scenario events differ: %d vs %d", label, a.ScenarioEvents, b.ScenarioEvents)
	}
	if a.FinalTrainErr != b.FinalTrainErr || a.FinalTestErr != b.FinalTestErr {
		t.Fatalf("%s: final errors differ: (%v,%v) vs (%v,%v)",
			label, a.FinalTrainErr, a.FinalTestErr, b.FinalTrainErr, b.FinalTestErr)
	}
	if len(a.LossTrace) != len(b.LossTrace) || len(a.StepTrace) != len(b.StepTrace) {
		t.Fatalf("%s: predictor trace lengths differ", label)
	}
	for i := range a.LossTrace {
		if a.LossTrace[i] != b.LossTrace[i] {
			t.Fatalf("%s: loss trace point %d differs", label, i)
		}
	}
	for i := range a.StepTrace {
		if a.StepTrace[i] != b.StepTrace[i] {
			t.Fatalf("%s: step trace point %d differs", label, i)
		}
	}
}

// TestBackendEquivalence is the engine's central guarantee: for every
// algorithm and fleet size, the concurrent backend produces a bit-identical
// Result (curve points, virtual clock, update counts, staleness, predictor
// traces) to the sequential simulator, because all shared state still
// mutates on the event loop in simulated-clock order.
func TestBackendEquivalence(t *testing.T) {
	for _, algo := range allAlgos {
		for _, m := range []int{1, 4, 8} {
			if algo == SGD && m != 1 {
				continue // SGD pins its fleet to one replica
			}
			algo, m := algo, m
			assertBackendEquivalent(t, string(algo)+"/stationary", func() Env {
				return tinyEnvSeeded(algo, m, 2)
			})
		}
	}
}

// TestBackendEquivalenceUnderScenarios extends the guarantee to fleet
// churn: crashes with recoveries and elastic resizes pause, retire and
// admit worker lanes mid-run, and both backends must still agree bit for
// bit — lane lifecycle is pure event-loop state.
func TestBackendEquivalenceUnderScenarios(t *testing.T) {
	for _, scn := range equivalenceScenarios() {
		for _, algo := range allAlgos {
			algo, scn := algo, scn
			m := 4
			if algo == SGD {
				m = 1
			}
			assertBackendEquivalent(t, string(algo)+"/"+scn.Name, func() Env {
				env := tinyEnvSeeded(algo, m, 2)
				env.Cfg.Scenario = scn
				return env
			})
		}
	}
}

// toyStrategy demonstrates the extension point: a sixth algorithm is just a
// Strategy. It is "local SGD with immediate commit" — every worker applies
// its own gradient after one compute delay, no communication modeled.
type toyStrategy struct{}

func (toyStrategy) Algo() Algo    { return "TOY" }
func (toyStrategy) Setup(*Engine) {}
func (toyStrategy) Launch(e *Engine, m int) {
	e.Pull(m)
	wait := e.DispatchGradient(m)
	e.AfterWorker(m, e.CompSample(m), func() {
		if e.Done() {
			return
		}
		wait()
		e.FoldStats(m)
		e.Commit(m, e.Gradient(m), 1)
	})
}
func (toyStrategy) Finish(*Engine, *Result) {}

// unregisterStrategy removes a registered algorithm so registration tests
// stay re-runnable (RegisterStrategy rejects duplicates).
func unregisterStrategy(algo Algo) {
	strategyMu.Lock()
	delete(strategies, algo)
	strategyMu.Unlock()
}

// TestRegisterToyStrategy proves a new algorithm needs only the Strategy
// interface: register, run through the generic engine, and train — on both
// backends, with identical results, since equivalence is an engine property
// strategies inherit for free.
func TestRegisterToyStrategy(t *testing.T) {
	RegisterStrategy("TOY", func(Config) Strategy { return toyStrategy{} })
	t.Cleanup(func() { unregisterStrategy("TOY") })
	env := tinyEnvSeeded("TOY", 4, 4)
	res := Run(env)
	if res.Algo != "TOY" {
		t.Fatalf("result algo %q", res.Algo)
	}
	if len(res.Points) < 2 {
		t.Fatalf("toy strategy produced %d points", len(res.Points))
	}
	if res.FinalTrainErr >= res.Points[0].TrainErr {
		t.Fatalf("toy strategy did not learn: %v -> %v", res.Points[0].TrainErr, res.FinalTrainErr)
	}
	conc := tinyEnvSeeded("TOY", 4, 4)
	conc.Cfg.Backend = BackendConcurrent
	res2 := Run(conc)
	if len(res.Points) != len(res2.Points) {
		t.Fatal("toy strategy not backend-equivalent")
	}
	for i := range res.Points {
		if res.Points[i] != res2.Points[i] {
			t.Fatalf("toy strategy point %d differs across backends", i)
		}
	}
}

func TestRegisterStrategyRejectsDuplicate(t *testing.T) {
	RegisterStrategy("dup-probe", func(Config) Strategy { return toyStrategy{} })
	t.Cleanup(func() { unregisterStrategy("dup-probe") })
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate registration")
		}
	}()
	RegisterStrategy("dup-probe", func(Config) Strategy { return toyStrategy{} })
}

func TestRegisterStrategyRejectsEmptyName(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on empty algorithm name")
		}
	}()
	RegisterStrategy("", func(Config) Strategy { return toyStrategy{} })
}

func TestRegisterStrategyRejectsNilFactory(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on nil factory")
		}
	}()
	RegisterStrategy("nil-factory-probe", nil)
}

func TestRunPanicsOnUnknownBackend(t *testing.T) {
	e := tinyEnvSeeded(SGD, 1, 1)
	e.Cfg.Backend = "bogus"
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Run(e)
}

func TestSGDIgnoresWorkerCount(t *testing.T) {
	// Sequential SGD pins its fleet to one replica, so Workers is inert.
	a := Run(tinyEnvSeeded(SGD, 1, 2))
	b := Run(tinyEnvSeeded(SGD, 8, 2))
	if len(a.Points) != len(b.Points) {
		t.Fatal("SGD result depends on Workers")
	}
	for i := range a.Points {
		if a.Points[i] != b.Points[i] {
			t.Fatalf("SGD point %d depends on Workers", i)
		}
	}
}

// --- backend unit tests ---

func TestConcurrentBackendLaneOrdering(t *testing.T) {
	be := newConcBackend(2)
	defer be.Close()
	var mu sync.Mutex
	var order []int
	var waits []func()
	for i := 0; i < 20; i++ {
		i := i
		waits = append(waits, be.Dispatch(0, func() {
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
		}))
	}
	for _, w := range waits {
		w()
	}
	if !sort.IntsAreSorted(order) {
		t.Fatalf("lane tasks ran out of dispatch order: %v", order)
	}
}

func TestConcurrentBackendParallelForCoversAllIndices(t *testing.T) {
	be := newConcBackend(1)
	defer be.Close()
	const n = 37
	hits := make([]int, n)
	be.ParallelFor(n, func(i int) { hits[i]++ })
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d visited %d times", i, h)
		}
	}
}

func TestSequentialBackendBasics(t *testing.T) {
	be := newBackend(BackendSequential, 4)
	if _, ok := be.(seqBackend); !ok {
		t.Fatalf("newBackend(%q) built %T", BackendSequential, be)
	}
	ran := false
	wait := be.Dispatch(0, func() { ran = true })
	wait()
	if !ran {
		t.Fatal("sequential dispatch did not run inline")
	}
	sum := 0
	be.ParallelFor(5, func(i int) { sum += i })
	if sum != 10 {
		t.Fatalf("ParallelFor sum %d", sum)
	}
	if be.Parallelism() != 1 {
		t.Fatalf("sequential backend reports %d lanes", be.Parallelism())
	}
}

func TestBackendDefaultsToSequential(t *testing.T) {
	if cfg := (Config{Epochs: 1}).withDefaults(); cfg.Backend != BackendSequential {
		t.Fatalf("default backend %q", cfg.Backend)
	}
	if _, ok := newBackend("", 4).(seqBackend); !ok {
		t.Fatal("empty kind must map to sequential")
	}
}
