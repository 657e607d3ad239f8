package ps

import (
	"fmt"
	"slices"
	"testing"

	"lcasgd/internal/cluster"
	"lcasgd/internal/core"
	"lcasgd/internal/data"
	"lcasgd/internal/model"
	"lcasgd/internal/nn"
	"lcasgd/internal/rng"
	"lcasgd/internal/scenario"
)

// benchEnv is a heftier environment than the unit-test one so that per-batch
// compute dominates dispatch overhead — the regime where the concurrent
// backend's cross-worker overlap pays off.
func benchEnv(algo Algo, workers int, kind BackendKind) Env {
	d := data.Config{
		Classes: 8, C: 1, H: 12, W: 12,
		Train: 512, Test: 128,
		NoiseSigma: 0.8, SignalScale: 0.5, Smoothing: 1, Seed: 99,
	}
	train, test := data.Generate(d)
	return Env{
		Train: train,
		Test:  test,
		Build: func(g *rng.RNG) *nn.Sequential { return model.MLP("bench", 144, 96, 8, g) },
		Cfg: Config{
			Algo: algo, Workers: workers, BatchSize: 32, Epochs: 2,
			LR: 0.05, Lambda: 1, DCLambda: 0.3,
			BNMode: core.BNAsync, Seed: 7, Cost: cluster.CIFARCostModel(),
			LossPredHidden: 8, StepPredHidden: 8,
			Backend: kind,
		},
	}
}

// BenchmarkSSGDRound compares the two execution backends on SSGD rounds: a
// round's M gradient computations are independent, so the concurrent
// backend overlaps them across cores while the barrier commit stays on the
// event loop. Run with GOMAXPROCS ≥ 4 to see the speedup.
func BenchmarkSSGDRound(b *testing.B) {
	for _, kind := range []BackendKind{BackendSequential, BackendConcurrent} {
		b.Run(string(kind), func(b *testing.B) {
			env := benchEnv(SSGD, 4, kind)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Run(env)
			}
		})
	}
}

// BenchmarkLCASGDFleet compares the backends on an LC-ASGD fleet, where
// forward and backward passes of different workers overlap between the
// server's event-loop interactions.
func BenchmarkLCASGDFleet(b *testing.B) {
	for _, kind := range []BackendKind{BackendSequential, BackendConcurrent} {
		b.Run(string(kind), func(b *testing.B) {
			env := benchEnv(LCASGD, 4, kind)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Run(env)
			}
		})
	}
}

// convEnvSeeded is tinyEnvSeeded with a small ResNet so benchmarks and
// tests cover conv, BN, residual and pooling layers.
func convEnvSeeded(algo Algo, workers, epochs int) Env {
	env := tinyEnvSeeded(algo, workers, epochs)
	d := data.Config{
		Classes: 4, C: 3, H: 8, W: 8,
		Train: 80, Test: 40,
		NoiseSigma: 0.8, SignalScale: 0.5, Smoothing: 1, Seed: 99,
	}
	env.Train, env.Test = data.Generate(d)
	mc := model.ResNetLite18(4)
	env.Build = func(g *rng.RNG) *nn.Sequential { return mc.Build(g) }
	env.Cfg.BatchSize = 10
	return env
}

// benchReplica builds a standalone worker replica, an executor to compute
// it, plus the server-side state one pull needs, bypassing the engine so
// the benchmark isolates the worker-local compute path.
func benchReplica(env Env) (*replica, *executor, []float64, *core.BNAccumulator) {
	cfg := env.Cfg.withDefaults()
	seedRng := rng.New(cfg.Seed)
	modelSeed := seedRng.Uint64()
	x := newExecPool(env.Build, modelSeed).get()
	rep := newReplica(x.net.NewState(), env.Train, cfg.BatchSize, seedRng.SplitLabeled(300))
	bnAcc := core.NewBNAccumulator(cfg.BNMode, 0.2, bnChannels(x.net))
	w := slices.Clone(x.net.State().Values)
	return rep, x, w, bnAcc
}

// BenchmarkWorkerIteration measures one steady-state worker iteration —
// pull, forward, backward, stats fold — the innermost unit every algorithm
// repeats. allocs/op is the headline number: the zero-allocation hot path
// pins it to 0 (it was several hundred before PR 4).
func BenchmarkWorkerIteration(b *testing.B) {
	benches := []struct {
		name string
		env  Env
	}{
		{"mlp", benchEnv(ASGD, 1, BackendSequential)},
		{"resnet", convEnvSeeded(ASGD, 1, 2)},
	}
	for _, bc := range benches {
		b.Run(bc.name, func(b *testing.B) {
			rep, x, w, bnAcc := benchReplica(bc.env)
			rep.pull(w, bnAcc)
			rep.gradient(x) // warm the layer buffers
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rep.pull(w, bnAcc)
				rep.gradient(x)
				bnAcc.Update(rep.st.BatchMean, rep.st.BatchVar)
			}
		})
	}
}

// fleetScaleEnv shrinks the ML workload to near-nothing (4 samples, a
// 4→16→16→4 MLP) so BenchmarkFleetScale measures the engine, not the network:
// scheduling, fleet bookkeeping, gossip partner draws, consensus refreshes
// and curve recording. Each worker gets the same per-worker iteration budget
// at every M (epochs scale with the fleet), so ns/event is comparable across
// fleet sizes — any per-event cost that grows with M shows up directly. The
// cost model stretches virtual iterations to ~1s so the canned flaky
// timeline (first crash at t=900ms, period 3s) genuinely churns the fleet
// within the run's span instead of expiring after it.
//
// EvalEvery is the fleet size, as in bench/'s fleet_scale workload: an epoch
// here is one batch, so the default would put a full evaluation — and for
// AD-PSGD an O(M·nParams) consensus fold — behind every single commit, which
// no profile, example or benchmark workload does; a curve point per fleet
// round is the traffic they run.
func fleetScaleEnv(algo Algo, workers int, scn *scenario.Scenario) Env {
	d := data.Config{
		Classes: 4, C: 1, H: 2, W: 2,
		Train: 4, Test: 4,
		NoiseSigma: 0.8, SignalScale: 0.5, Smoothing: 1, Seed: 99,
	}
	train, test := data.Generate(d)
	const itersPerWorker = 2
	const batchesPerEpoch = 1 // Train/BatchSize
	return Env{
		Train: train,
		Test:  test,
		// The hidden width keeps nParams large relative to the 4-sample
		// forward passes, so per-parameter engine work (consensus upkeep)
		// is visible over the network compute. EvalBatch matches the
		// dataset: the default (150) would pad every inference batch
		// ~40x past the data and drown the engine in dead matmul rows.
		Build: func(g *rng.RNG) *nn.Sequential { return model.MLP("fleet", 4, 16, 4, g) },
		Cfg: Config{
			Algo: algo, Workers: workers, BatchSize: 4, EvalBatch: 4,
			Epochs:    workers * itersPerWorker / batchesPerEpoch,
			EvalEvery: workers,
			LR:        0.05, Lambda: 1, DCLambda: 0.3,
			BNMode: core.BNAsync, Seed: 7,
			Cost: cluster.CostModel{
				MeanComp: 900, MeanComm: 50, Sigma: 0.2,
				Heterogeneity: 0.3, StragglerProb: 0.02, StragglerFactor: 3,
			},
			LossPredHidden: 8, StepPredHidden: 8,
			Backend:  BackendSequential,
			Scenario: scn,
		},
	}
}

// BenchmarkCheckpointScale measures the checkpoint fast path at fleet
// scale: whole AD-PSGD runs (the costliest snapshot — every worker carries
// a full parameter replica) at M ∈ {16, 256, 1024, 4096} with an in-memory
// sink, at barrier cadences every ∈ {0, 1, 4}. every=0 is the
// no-checkpoint baseline, so the checkpoint path's wall-time cost is the
// ns/op delta against it. Each worker gets 8 iterations (epochs scale with
// M, like fleetScaleEnv): a barrier's quiescent drain absorbs roughly one
// full fleet round, so this yields a comparable ~7 barriers per run at
// every M. The sparse cells park 7/8 of the fleet up front — dead workers'
// sections stop moving, so deltas carry only the live eighth; that is the
// regime (most of a big fleet idle or partitioned between barriers) where
// a delta is smallest, and where encoding every section to find that out
// costs the most beside it. Reported metrics:
// checkpoints per run, average container size, and the full-vs-delta
// split (KB), the pair bench/'s ps.ckpt_full_kb/ps.ckpt_delta_kb read on
// fleet_scale; finalErr doubles as a
// trajectory fingerprint — it must be bit-identical across cadences and
// across the before/after binaries of a perf comparison, since checkpoint
// encoding must never perturb the run.
func BenchmarkCheckpointScale(b *testing.B) {
	const itersPerWorker = 8
	sparseScn := func(m int) *scenario.Scenario {
		scn := &scenario.Scenario{Name: "sparse"}
		for w := m / 8; w < m; w++ {
			scn.Events = append(scn.Events, scenario.Event{
				At: 1 + 0.01*float64(w), Kind: scenario.Crash, Worker: w,
			})
		}
		return scn
	}
	type cell struct {
		name  string
		every int
		scn   *scenario.Scenario
	}
	for _, m := range []int{16, 256, 1024, 4096} {
		cells := []cell{
			{"every0", 0, nil},
			{"every1", 1, nil},
			{"every4", 4, nil},
			{"sparse/every0", 0, sparseScn(m)},
			{"sparse/every1", 1, sparseScn(m)},
		}
		for _, c := range cells {
			b.Run(fmt.Sprintf("ADPSGD/M%d/%s", m, c.name), func(b *testing.B) {
				env := fleetScaleEnv(ADPSGD, m, c.scn)
				env.Cfg.Epochs = m * itersPerWorker
				env.Cfg.CheckpointEvery = c.every
				every := c.every
				var cks, total, fullB, fullN, deltaB, deltaN int
				if every > 0 {
					env.CheckpointSink = func(ck Checkpoint) error {
						cks++
						total += len(ck.Data)
						if ck.Full {
							fullB += len(ck.Data)
							fullN++
						} else {
							deltaB += len(ck.Data)
							deltaN++
						}
						return nil
					}
				}
				var fp float64
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res := Run(env)
					fp = res.FinalTestErr
				}
				b.StopTimer()
				b.ReportMetric(fp, "finalErr")
				if cks > 0 {
					b.ReportMetric(float64(cks)/float64(b.N), "ckpt/op")
					b.ReportMetric(float64(total)/float64(cks)/1024, "KB/ckpt")
				}
				if fullN > 0 {
					b.ReportMetric(float64(fullB)/float64(fullN)/1024, "fullKB")
				}
				if deltaN > 0 {
					b.ReportMetric(float64(deltaB)/float64(deltaN)/1024, "deltaKB")
				}
			})
		}
	}
}

// BenchmarkFleetScale drives whole runs at M ∈ {16, 256, 1024, 4096} for one
// parameter-server algorithm (ASGD) and one decentralized one (AD-PSGD),
// with and without churn, reporting ns and allocs per simulator event. The
// scaling contract under test: per-event cost stays flat as M grows (heap
// ops are O(log M); everything else on the per-event path is O(1) in the
// fleet size), so ns/event at M=4096 should sit within ~2x of M=256.
func BenchmarkFleetScale(b *testing.B) {
	flaky := scenario.Flaky()
	scns := []struct {
		name string
		scn  *scenario.Scenario
	}{{"none", nil}, {"flaky", &flaky}}
	for _, algo := range []Algo{ASGD, ADPSGD} {
		for _, m := range []int{16, 256, 1024, 4096} {
			for _, sc := range scns {
				b.Run(fmt.Sprintf("%s/M%d/%s", algo, m, sc.name), func(b *testing.B) {
					env := fleetScaleEnv(algo, m, sc.scn)
					env.Cfg = env.Cfg.withDefaults()
					b.ReportAllocs()
					b.ResetTimer()
					var events uint64
					for i := 0; i < b.N; i++ {
						e := newEngine(env, strategyFor(env.Cfg))
						e.run()
						events += e.clock.Processed()
					}
					b.StopTimer()
					if events > 0 {
						b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
						b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
					}
				})
			}
		}
	}
}
