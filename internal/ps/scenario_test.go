package ps

import (
	"fmt"
	"reflect"
	"testing"

	"lcasgd/internal/scenario"
)

// withScenario returns the tiny environment with a scenario attached.
func withScenario(algo Algo, workers, epochs int, scn *scenario.Scenario) Env {
	env := tinyEnvSeeded(algo, workers, epochs)
	env.Cfg.Scenario = scn
	return env
}

func TestSAASGDLearnsAndTracksStaleness(t *testing.T) {
	res := Run(tinyEnvSeeded(SAASGD, 4, 6))
	if res.Algo != SAASGD {
		t.Fatalf("result algo %q", res.Algo)
	}
	first, last := res.Points[0], res.Points[len(res.Points)-1]
	if last.TrainErr >= first.TrainErr {
		t.Fatalf("SA-ASGD did not learn: %v -> %v", first.TrainErr, last.TrainErr)
	}
	if res.MeanStaleness <= 0 || res.MaxStaleness <= 0 {
		t.Fatalf("staleness not tracked: mean %v max %d", res.MeanStaleness, res.MaxStaleness)
	}
	if float64(res.MaxStaleness) < res.MeanStaleness {
		t.Fatalf("max staleness %d below mean %v", res.MaxStaleness, res.MeanStaleness)
	}
}

func TestSAASGDDiffersFromASGD(t *testing.T) {
	// The staleness modulation must change the trajectory relative to plain
	// ASGD (same seeds, same schedule, same cluster).
	sa := Run(tinyEnvSeeded(SAASGD, 4, 3))
	asgd := Run(tinyEnvSeeded(ASGD, 4, 3))
	same := true
	for i := range sa.Points {
		if sa.Points[i].TestErr != asgd.Points[i].TestErr {
			same = false
			break
		}
	}
	if same {
		t.Fatal("SA-ASGD trajectory identical to ASGD; staleness modulation inert")
	}
}

func TestMaxStalenessAtLeastCeilOfMean(t *testing.T) {
	res := Run(tinyEnvSeeded(ASGD, 8, 3))
	if res.MaxStaleness < int(res.MeanStaleness) {
		t.Fatalf("max staleness %d vs mean %v", res.MaxStaleness, res.MeanStaleness)
	}
}

func TestScenarioPhaseShiftSlowsRun(t *testing.T) {
	slow := &scenario.Scenario{
		Name: "congested",
		Events: []scenario.Event{
			{At: 1, Kind: scenario.PhaseShift, Worker: -1, CompScale: 3, CommScale: 3},
		},
	}
	base := Run(tinyEnvSeeded(ASGD, 4, 2))
	congested := Run(withScenario(ASGD, 4, 2, slow))
	if congested.ScenarioEvents != 1 {
		t.Fatalf("applied events %d, want 1", congested.ScenarioEvents)
	}
	if congested.Updates != base.Updates {
		t.Fatalf("phase shift changed the sample budget: %d vs %d", congested.Updates, base.Updates)
	}
	if congested.VirtualMs <= base.VirtualMs {
		t.Fatalf("3x congestion did not slow the run: %v vs %v", congested.VirtualMs, base.VirtualMs)
	}
}

func TestScenarioCrashRecoveryCompletesBudget(t *testing.T) {
	scn := &scenario.Scenario{
		Name: "blip",
		Events: []scenario.Event{
			{At: 40, Kind: scenario.Crash, Worker: 1},
			{At: 120, Kind: scenario.Recover, Worker: 1},
		},
	}
	base := Run(tinyEnvSeeded(ASGD, 4, 3))
	res := Run(withScenario(ASGD, 4, 3, scn))
	// Crash + recovery loses in-flight work but not sample budget: the
	// surviving workers (and the recovered one) still consume every batch.
	if res.Updates != base.Updates {
		t.Fatalf("updates %d, want the full budget %d", res.Updates, base.Updates)
	}
	if res.ScenarioEvents != 2 {
		t.Fatalf("applied events %d, want 2", res.ScenarioEvents)
	}
}

func TestScenarioPermanentCrashTruncatesRun(t *testing.T) {
	// Killing the whole fleet with no recovery must truncate the run
	// deterministically — fewer updates, non-empty curve, no hang.
	events := make([]scenario.Event, 0, 4)
	for m := 0; m < 4; m++ {
		events = append(events, scenario.Event{At: 50, Kind: scenario.Crash, Worker: m})
	}
	scn := &scenario.Scenario{Name: "blackout", Events: events}
	base := Run(tinyEnvSeeded(ASGD, 4, 3))
	res := Run(withScenario(ASGD, 4, 3, scn))
	if res.Updates >= base.Updates {
		t.Fatalf("blackout did not truncate: %d vs %d updates", res.Updates, base.Updates)
	}
	if len(res.Points) == 0 {
		t.Fatal("truncated run recorded no curve points")
	}
}

func TestScenarioPeriodicEventsStopWhenFleetDies(t *testing.T) {
	// A periodic event must not keep the clock alive forever once the fleet
	// is permanently dead and nothing can revive it; this test hangs if the
	// stall guard is broken.
	scn := &scenario.Scenario{
		Name: "dead-with-heartbeat",
		Events: []scenario.Event{
			{At: 30, Kind: scenario.Crash, Worker: 0},
			{At: 10, Period: 15, Kind: scenario.PhaseShift, Worker: -1, CompScale: 2, CommScale: 2},
		},
	}
	res := Run(withScenario(SGD, 1, 2, scn))
	if len(res.Points) == 0 {
		t.Fatal("no curve points from truncated run")
	}
}

func TestScenarioElasticFleetGrows(t *testing.T) {
	scn := &scenario.Scenario{
		Name:           "scale-up",
		InitialWorkers: 1,
		Events: []scenario.Event{
			{At: 40, Kind: scenario.Join, Worker: 1},
			{At: 80, Kind: scenario.Join, Worker: 2},
			{At: 120, Kind: scenario.Join, Worker: 3},
		},
	}
	base := Run(tinyEnvSeeded(ASGD, 4, 3))
	res := Run(withScenario(ASGD, 4, 3, scn))
	if res.Updates != base.Updates {
		t.Fatalf("elastic run missed budget: %d vs %d", res.Updates, base.Updates)
	}
	if res.ScenarioEvents != 3 {
		t.Fatalf("applied events %d, want 3 joins", res.ScenarioEvents)
	}
	// Ramping from one worker, the early phase is nearly staleness-free, so
	// the run must be virtually slower than the full fleet from the start.
	if res.VirtualMs <= base.VirtualMs {
		t.Fatalf("scale-up run %vms not slower than full fleet %vms", res.VirtualMs, base.VirtualMs)
	}
}

func TestScenarioSkipsOutOfRangeWorkers(t *testing.T) {
	// One scenario serves any fleet size: events for ranks beyond the fleet
	// are skipped at compile time. SGD pins the fleet to a single replica,
	// so only the phase shift and worker-0 events apply.
	scn := &scenario.Scenario{
		Name: "oversized",
		Events: []scenario.Event{
			{At: 20, Kind: scenario.Crash, Worker: 7},
			{At: 30, Kind: scenario.Recover, Worker: 7},
			{At: 40, Kind: scenario.PhaseShift, Worker: -1, CompScale: 1.5, CommScale: 1},
		},
	}
	res := Run(withScenario(SGD, 1, 2, scn))
	if res.ScenarioEvents != 1 {
		t.Fatalf("applied events %d, want only the fleet-wide phase shift", res.ScenarioEvents)
	}
	if res.Updates == 0 {
		t.Fatal("run did not train")
	}
}

func TestScenarioRedundantEventsIgnored(t *testing.T) {
	scn := &scenario.Scenario{
		Name: "redundant",
		Events: []scenario.Event{
			{At: 20, Kind: scenario.Recover, Worker: 0}, // already active
			{At: 30, Kind: scenario.Crash, Worker: 1},
			{At: 40, Kind: scenario.Crash, Worker: 1}, // already down
			{At: 60, Kind: scenario.Recover, Worker: 1},
		},
	}
	res := Run(withScenario(ASGD, 4, 2, scn))
	if res.ScenarioEvents != 2 {
		t.Fatalf("applied events %d, want 2 (crash + recover)", res.ScenarioEvents)
	}
}

func TestScenarioDeterminism(t *testing.T) {
	scn := &scenario.Scenario{
		Name: "churn",
		Events: []scenario.Event{
			{At: 30, Kind: scenario.Crash, Worker: 1},
			{At: 50, Period: 60, Kind: scenario.PhaseShift, Worker: -1, CompScale: 2, CommScale: 2},
			{At: 80, Period: 60, Kind: scenario.PhaseShift, Worker: -1, CompScale: 1, CommScale: 1},
			{At: 90, Kind: scenario.Recover, Worker: 1},
		},
	}
	for _, algo := range []Algo{SSGD, SAASGD, LCASGD} {
		a := Run(withScenario(algo, 4, 2, scn))
		b := Run(withScenario(algo, 4, 2, scn))
		if len(a.Points) != len(b.Points) || a.VirtualMs != b.VirtualMs || a.Updates != b.Updates {
			t.Fatalf("%s: scenario run not deterministic", algo)
		}
		for i := range a.Points {
			if a.Points[i] != b.Points[i] {
				t.Fatalf("%s: point %d differs across identical scenario runs", algo, i)
			}
		}
	}
}

func TestSSGDBarrierSurvivesArrivalCrashRecoverChurn(t *testing.T) {
	// High-frequency crash/recover cycles deliberately misaligned with the
	// ~40ms barrier rounds, so crashes land in every phase of a round —
	// including after a worker's arrival with recovery before the round
	// closes, the window where closeRound's restart list names the worker
	// twice. The membership guard in Launch must swallow the duplicate; the
	// arrive invariant panics (failing this test) if a duplicate iteration
	// ever gets dispatched.
	scn := &scenario.Scenario{
		Name: "arrival-churn",
		Events: []scenario.Event{
			{At: 20, Period: 37, Kind: scenario.Crash, Worker: 1},
			{At: 27, Period: 37, Kind: scenario.Recover, Worker: 1},
			{At: 33, Period: 53, Kind: scenario.Crash, Worker: 3},
			{At: 41, Period: 53, Kind: scenario.Recover, Worker: 3},
		},
	}
	res := Run(withScenario(SSGD, 4, 3, scn))
	if res.Updates == 0 || len(res.Points) == 0 {
		t.Fatal("churned SSGD run produced nothing")
	}
	if got := res.Points[len(res.Points)-1].Epoch; got < 3 {
		t.Fatalf("churned SSGD run stopped at epoch %d, want the full budget", got)
	}
}

func TestSSGDArrivedWorkerCrashRecoverWithinRound(t *testing.T) {
	// White-box: force the narrowest churn window — a worker crashes after
	// its barrier arrival and recovers before the round closes. closeRound's
	// restart list then names it twice (as an arrival and as a parked
	// admit); Launch must refuse the duplicate or the worker dispatches two
	// iterations for one membership, and the stray arrival trips the
	// barrier invariant (panic) in a later round.
	env := tinyEnvSeeded(SSGD, 4, 2)
	env.Cfg = env.Cfg.withDefaults()
	st := strategyFor(env.Cfg).(*ssgdStrategy)
	e := newEngine(env, st)
	defer e.close()
	st.Setup(e)
	for m := range e.workers {
		e.launch(m)
	}
	for len(st.arrived) == 0 {
		if !e.clock.Step() {
			t.Fatal("run drained before any barrier arrival")
		}
	}
	m := st.arrived[0]
	e.retire(m)
	e.admit(m)
	if len(st.pending) != 1 || st.pending[0] != m {
		t.Fatalf("recovered mid-round worker not parked: pending %v", st.pending)
	}
	e.clock.Run(func() bool { return e.srv.done() })
	if e.srv.batches < e.srv.target {
		t.Fatalf("run consumed %d of %d batches", e.srv.batches, e.srv.target)
	}
}

func TestRunPanicsOnInvalidScenario(t *testing.T) {
	env := withScenario(ASGD, 4, 1, &scenario.Scenario{
		Name:   "bad",
		Events: []scenario.Event{{At: -5, Kind: scenario.Crash, Worker: 0}},
	})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on invalid scenario")
		}
	}()
	Run(env)
}

func TestSSGDBarrierSurvivesMidRoundCrash(t *testing.T) {
	// Crash a worker early (almost surely mid-round) and never recover it:
	// the barrier must shrink to the survivors and still consume the whole
	// sample budget.
	scn := &scenario.Scenario{
		Name:   "ssgd-crash",
		Events: []scenario.Event{{At: 35, Kind: scenario.Crash, Worker: 2}},
	}
	base := Run(tinyEnvSeeded(SSGD, 4, 3))
	res := Run(withScenario(SSGD, 4, 3, scn))
	if res.ScenarioEvents != 1 {
		t.Fatalf("crash not applied: %d events", res.ScenarioEvents)
	}
	// 3 epochs × 8 batches = 24 batches. Full rounds consume 4, the
	// post-crash rounds 3, so strictly more rounds (updates) than the
	// stationary run are needed to drain the same budget.
	if res.Updates <= base.Updates {
		t.Fatalf("3-worker rounds should need more updates: %d vs %d", res.Updates, base.Updates)
	}
	if got := res.Points[len(res.Points)-1].Epoch; got < base.Points[len(base.Points)-1].Epoch {
		t.Fatalf("crashed SSGD run did not reach final epoch: %d", got)
	}
}

func TestScenarioPartitionDropsCommitsButNotBudget(t *testing.T) {
	scn := &scenario.Scenario{
		Name: "cut",
		Events: []scenario.Event{
			{At: 40, Kind: scenario.Partition, Worker: 1},
			{At: 160, Kind: scenario.Heal, Worker: 1},
		},
	}
	base := Run(tinyEnvSeeded(ASGD, 4, 3))
	res := Run(withScenario(ASGD, 4, 3, scn))
	if res.ScenarioEvents != 2 {
		t.Fatalf("applied events %d, want 2", res.ScenarioEvents)
	}
	// Dropped commits consume no sample budget: the run still processes
	// every batch, it just takes longer in virtual time because worker 1's
	// compute during the cut was wasted.
	if res.Updates != base.Updates {
		t.Fatalf("partition changed the sample budget: %d vs %d", res.Updates, base.Updates)
	}
	if res.VirtualMs <= base.VirtualMs {
		t.Fatalf("wasted partition compute did not lengthen the run: %v vs %v", res.VirtualMs, base.VirtualMs)
	}
}

func TestScenarioPermanentPartitionParksWorker(t *testing.T) {
	// A partition with no heal ever coming parks the worker at its next
	// launch instead of spinning forever; the rest of the fleet finishes
	// the full budget.
	scn := &scenario.Scenario{
		Name:   "severed",
		Events: []scenario.Event{{At: 40, Kind: scenario.Partition, Worker: 1}},
	}
	base := Run(tinyEnvSeeded(ASGD, 4, 3))
	res := Run(withScenario(ASGD, 4, 3, scn))
	if res.Updates != base.Updates {
		t.Fatalf("updates %d, want full budget %d", res.Updates, base.Updates)
	}
}

func TestScenarioFullPartitionTruncatesRun(t *testing.T) {
	// Severing every worker with no heal must truncate deterministically —
	// parked workers schedule nothing, the clock drains, no hang.
	events := make([]scenario.Event, 0, 4)
	for m := 0; m < 4; m++ {
		events = append(events, scenario.Event{At: 50, Kind: scenario.Partition, Worker: m})
	}
	scn := &scenario.Scenario{Name: "island", Events: events}
	base := Run(tinyEnvSeeded(ASGD, 4, 3))
	res := Run(withScenario(ASGD, 4, 3, scn))
	if res.Updates >= base.Updates {
		t.Fatalf("full partition did not truncate: %d vs %d updates", res.Updates, base.Updates)
	}
	if len(res.Points) == 0 {
		t.Fatal("truncated run recorded no curve points")
	}
}

func TestScenarioPartitionedSSGDRoundStillCloses(t *testing.T) {
	// A partitioned SSGD participant arrives but contributes nothing; the
	// round must close over the remaining gradients and training completes.
	scn := &scenario.Scenario{
		Name: "cut-barrier",
		Events: []scenario.Event{
			{At: 40, Kind: scenario.Partition, Worker: 2},
			{At: 200, Kind: scenario.Heal, Worker: 2},
		},
	}
	res := Run(withScenario(SSGD, 4, 3, scn))
	if res.ScenarioEvents != 2 {
		t.Fatalf("applied events %d, want 2", res.ScenarioEvents)
	}
	if len(res.Points) < 2 {
		t.Fatalf("SSGD under partition produced %d points", len(res.Points))
	}
	last := res.Points[len(res.Points)-1]
	if last.TrainErr >= res.Points[0].TrainErr {
		t.Fatalf("SSGD under partition did not learn: %v -> %v", res.Points[0].TrainErr, last.TrainErr)
	}
}

// fleetCounters is everything setLink and countArmed keep incrementally.
type fleetCounters struct {
	active, cut, blocked, reviveArmed int
	heals                             []int
}

func readFleetCounters(e *Engine) fleetCounters {
	c := fleetCounters{active: e.activeN, cut: e.cutN, blocked: e.blockedN, reviveArmed: e.reviveArmedN}
	for m := range e.workers {
		c.heals = append(c.heals, e.workers[m].heals)
	}
	return c
}

// TestFleetCountersMatchRebuild audits the stall guard's O(1) counters
// against their definition: at every curve point and at the end of the run,
// what the transitions kept incrementally equals what rebuildFleetCounters
// derives from the per-worker flags and the armed list alone. It runs every
// algorithm under the equivalence scenarios and one that blocks workers behind
// heal-less partitions (the canned ones always have a Heal armed), then a
// sweep of randomized timelines at M=64.
func TestFleetCountersMatchRebuild(t *testing.T) {
	audits := 0
	audit := func(label string) func(*Engine, *recorder) {
		return func(e *Engine, _ *recorder) {
			audits++
			got := readFleetCounters(e)
			e.rebuildFleetCounters()
			if want := readFleetCounters(e); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s at t=%v: incremental counters %+v, rebuilt from flags and armed list %+v", label, e.Now(), got, want)
			}
		}
	}
	scns := append(equivalenceScenarios(), &scenario.Scenario{
		Name: "heal-less",
		Events: []scenario.Event{
			{At: 30, Kind: scenario.Partition, Worker: 1}, // never healed: blocked, parks
			{At: 35, Kind: scenario.Partition, Worker: 2},
			{At: 50, Kind: scenario.Crash, Worker: 1}, // a blocked worker retires
			{At: 60, Kind: scenario.Crash, Worker: 2},
			{At: 90, Kind: scenario.Recover, Worker: 1}, // and comes back still cut
			{At: 100, Kind: scenario.Heal, Worker: 2},   // healed while down
			{At: 120, Kind: scenario.Recover, Worker: 2},
		},
	})
	for _, algo := range allAlgos {
		for _, scn := range scns {
			label := string(algo) + "/" + scn.Name
			runObserved(withScenario(algo, 4, 3, scn), audit(label))
		}
	}
	for _, algo := range []Algo{ASGD, SSGD, ADPSGD} {
		for seed := uint64(1); seed <= 6; seed++ {
			env := randomizedEnv(algo, 64, 24, seed, 100, 32)
			env.Cfg.EvalEvery = 2
			runObserved(env, audit(fmt.Sprintf("%s/M64/seed%d", algo, seed)))
		}
	}
	if audits < 200 {
		t.Fatalf("only %d audits ran", audits)
	}
}
