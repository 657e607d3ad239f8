package ps

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"lcasgd/internal/scenario"
)

// AD-PSGD must actually train: gossip averaging plus local steps on a ring
// should reach the same kind of error the PS algorithms do on the toy
// problem.
func TestADPSGDLearns(t *testing.T) {
	// The sample budget is shared across the fleet but gradient steps land
	// on per-worker models, so each model sees ~1/M of the steps a PS run
	// would apply — give the toy problem proportionally more epochs.
	env := tinyEnvSeeded(ADPSGD, 4, 14)
	res := Run(env)
	if res.Algo != ADPSGD {
		t.Fatalf("Algo = %q", res.Algo)
	}
	if res.FinalTestErr > 0.5 {
		t.Fatalf("AD-PSGD did not learn: final test err %.3f", res.FinalTestErr)
	}
	if res.Updates != env.Cfg.Epochs*(env.Train.Len()/env.Cfg.BatchSize) {
		t.Fatalf("updates %d, want full budget", res.Updates)
	}
}

// The decentralized staleness metric — iteration lag vs the averaged
// neighbor — must be populated: on a heterogeneous-cost fleet workers
// commit at different rates, so some exchanges must observe a lag.
func TestADPSGDStalenessPopulated(t *testing.T) {
	env := tinyEnvSeeded(ADPSGD, 8, 4)
	res := Run(env)
	if res.MeanStaleness <= 0 {
		t.Fatalf("decentralized staleness not populated: mean %.4f", res.MeanStaleness)
	}
	if res.MaxStaleness < 1 {
		t.Fatalf("max staleness %d, want ≥ 1", res.MaxStaleness)
	}
}

// Different topologies must produce different (but individually
// deterministic) trajectories: the graph is part of the run's definition.
func TestADPSGDTopologyShapesTrajectory(t *testing.T) {
	// The curve plus the staleness aggregates discriminate trajectories:
	// error rates alone quantize to 1/len(dataset) and can coincide.
	type trace struct {
		points    []Point
		meanStale float64
		maxStale  int
	}
	run := func(spec string) trace {
		env := tinyEnvSeeded(ADPSGD, 8, 4)
		env.Cfg.Topology = spec
		res := Run(env)
		return trace{res.Points, res.MeanStaleness, res.MaxStaleness}
	}
	ring1, ring2 := run("ring"), run("")
	if !reflect.DeepEqual(ring1, ring2) {
		t.Fatalf("empty topology spec must default to ring")
	}
	ring3 := run("ring")
	if !reflect.DeepEqual(ring1, ring3) {
		t.Fatalf("same topology + seed not deterministic")
	}
	if complete := run("complete"); reflect.DeepEqual(ring1, complete) {
		t.Fatalf("ring and complete produced identical trajectories")
	}
	if gossip := run("gossip"); reflect.DeepEqual(ring1, gossip) {
		t.Fatalf("ring and gossip produced identical trajectories")
	}
}

// A heal-less partition must not park a decentralized worker: it keeps
// training its own model and consuming budget, so the run completes at full
// budget — the graph-cut semantics that distinguish AD-PSGD from the PS
// algorithms (whose cut workers' commits are dropped).
func TestADPSGDPartitionedWorkerKeepsTraining(t *testing.T) {
	env := tinyEnvSeeded(ADPSGD, 4, 3)
	env.Cfg.Scenario = &scenario.Scenario{
		Name:   "cut-forever",
		Events: []scenario.Event{{At: 5, Kind: scenario.Partition, Worker: 0}},
	}
	res := Run(env)
	want := env.Cfg.Epochs * (env.Train.Len() / env.Cfg.BatchSize)
	if res.Updates != want {
		t.Fatalf("updates %d, want full budget %d — cut worker parked?", res.Updates, want)
	}
	if res.ScenarioEvents != 1 {
		t.Fatalf("scenario events %d, want 1", res.ScenarioEvents)
	}
}

// TestConsensusIsExactFold pins what a consensus is: at every curve point —
// under churn that retires, admits and cuts workers between points, and with
// RecoverOpt rewriting recovered workers' models from the last checkpoint —
// the weights frozen for evaluation are the active workers' models summed in
// ascending rank order from zero, times 1/n, bit for bit.
func TestConsensusIsExactFold(t *testing.T) {
	for _, scn := range equivalenceScenarios() {
		for _, recoverOpt := range []bool{false, true} {
			env := ckptEnv(ADPSGD, 4, 3, BackendSequential, scn)
			env.Cfg.RecoverOpt = recoverOpt
			points := 0
			runObserved(env, func(e *Engine, r *recorder) {
				if r == nil || e.activeN == 0 {
					return
				}
				points++
				want := make([]float64, len(r.w))
				n := 0
				for m := range e.workers {
					if w := &e.workers[m]; w.active {
						n++
						for i, v := range w.w {
							want[i] += v
						}
					}
				}
				for i := range want {
					want[i] *= 1 / float64(n)
					if math.Float64bits(r.w[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%s/recoverOpt=%v: point at epoch %d: consensus[%d] = %v, the fold of the %d active models gives %v",
							scn.Name, recoverOpt, r.pending.Epoch, i, r.w[i], n, want[i])
					}
				}
			})
			if points < 4 {
				t.Fatalf("%s/recoverOpt=%v: only %d points checked", scn.Name, recoverOpt, points)
			}
		}
	}
}

// With one worker every topology degenerates to no neighbors: AD-PSGD must
// still run as plain local SGD without consuming staleness samples.
func TestADPSGDSingleWorker(t *testing.T) {
	env := tinyEnvSeeded(ADPSGD, 1, 4)
	res := Run(env)
	if res.MeanStaleness != 0 || res.MaxStaleness != 0 {
		t.Fatalf("single worker sampled staleness: mean %.3f max %d", res.MeanStaleness, res.MaxStaleness)
	}
	if res.FinalTestErr > 0.5 {
		t.Fatalf("single-worker AD-PSGD did not learn: %.3f", res.FinalTestErr)
	}
}

// A bad topology spec must fail fast with the valid vocabulary in the
// message.
func TestADPSGDBadTopologyPanics(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("bad topology spec did not panic")
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "ring") || !strings.Contains(msg, "gossip") {
			t.Fatalf("panic %v does not list the topology vocabulary", r)
		}
	}()
	env := tinyEnvSeeded(ADPSGD, 4, 1)
	env.Cfg.Topology = "mesh"
	Run(env)
}

// The registry's unknown-algorithm panic must list what is registered —
// the satellite fix this PR ships.
func TestUnknownAlgoPanicListsRegistered(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("unknown algo did not panic")
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, string(LCASGD)) || !strings.Contains(msg, string(ADPSGD)) {
			t.Fatalf("panic %v does not list registered algorithms", r)
		}
	}()
	strategyFor(Config{Algo: "NOPE"})
}
