// Package ps implements the five training algorithms the paper evaluates —
// sequential SGD, synchronous SGD (SSGD, Formula 1), asynchronous SGD
// (ASGD, Formula 2), delay-compensated ASGD (DC-ASGD, Formula 3, Zheng et
// al. 2017) and the paper's LC-ASGD (Algorithms 1–4) — plus algorithms
// beyond the paper: staleness-aware ASGD (SA-ASGD, Zhang et al. 2016) as a
// parameter-server strategy, and decentralized AD-PSGD (Lian et al. 2017),
// which replaces the server with gossip averaging on a communication graph
// (Config.Topology, internal/topology). All execute on a deterministic
// discrete-event cluster simulation. A Config.Scenario additionally replays
// cluster events (congestion phases, crashes/recoveries, elastic resizes,
// partitions) on the simulated clock, so every algorithm can be stressed on
// a non-stationary fleet.
//
// The package is layered (see ROADMAP.md's Architecture section):
//
//   - Engine owns everything a run shares across algorithms: replica fleet,
//     data sharding, cost sampler, BN accumulator, recorder, and the
//     discrete-event loop.
//   - Strategy is the algorithm: how worker iterations are scheduled and
//     how their gradients become server updates. The five paper algorithms
//     are compact Strategy implementations; RegisterStrategy adds more.
//   - Backend executes worker-local compute: BackendSequential inline on
//     the event loop, BackendConcurrent fanned across goroutine lanes with
//     server commits still in simulated-clock order, so both backends
//     produce bit-identical results.
//
// All algorithms perform the same total amount of sample processing
// (Epochs × dataset passes), so the error-vs-epoch curves of Figures 3/5
// compare optimization quality at equal data budgets, while the virtual
// clock gives the error-vs-seconds curves of Figures 4/6.
package ps

import (
	"fmt"

	"lcasgd/internal/cluster"
	"lcasgd/internal/core"
	"lcasgd/internal/data"
	"lcasgd/internal/nn"
	"lcasgd/internal/opt"
	"lcasgd/internal/rng"
	"lcasgd/internal/scenario"
	"lcasgd/internal/telemetry"
)

// Algo identifies a training algorithm.
type Algo string

// The five algorithms of the paper's evaluation.
const (
	SGD    Algo = "SGD"
	SSGD   Algo = "SSGD"
	ASGD   Algo = "ASGD"
	DCASGD Algo = "DC-ASGD"
	LCASGD Algo = "LC-ASGD"
)

// SAASGD is the staleness-aware ASGD of Zhang et al. (IJCAI 2016) — the
// first algorithm beyond the paper's five, added through RegisterStrategy
// (see sa.go). Each gradient's step size is divided by its staleness, so
// long-delayed gradients move the server less.
const SAASGD Algo = "SA-ASGD"

// Config controls one training run.
type Config struct {
	Algo      Algo
	Workers   int
	BatchSize int
	Epochs    int
	LR        float64 // base learning rate; the paper's step schedule is derived from it

	// Lambda is LC-ASGD's compensation mixing hyper-parameter (Formula 5);
	// 0 disables compensation, reducing LC-ASGD to ASGD plus BN handling.
	Lambda float64
	// DCLambda is DC-ASGD's variance-control parameter λ_t (Formula 3).
	DCLambda float64
	// WeightDecay is L2 regularization applied by the server update.
	WeightDecay float64

	BNMode  core.BNMode
	BNDecay float64 // EMA factor d of Formulas 6–7

	Seed uint64
	Cost cluster.CostModel

	// Scenario replays a timeline of cluster events — congestion phases,
	// worker crashes/recoveries, elastic fleet resizes — on the simulated
	// clock during the run. Nil means the stationary cluster of the paper.
	Scenario *scenario.Scenario

	// Topology names the communication graph decentralized algorithms
	// (AD-PSGD) gossip on — a topology.Parse spec: "ring" (the default when
	// empty), "complete", "star", "gossip" (seeded random), or
	// "edges:i-j,…". Parameter-server algorithms ignore it, but it is part
	// of ConfigKey like every field that can shape a trajectory.
	Topology string

	EvalEvery int // epochs between curve points (default 1)
	EvalBatch int // inference batch size (default 150)

	// Predictor sizes; zero means the paper's 64 (loss) and 128 (step).
	LossPredHidden, StepPredHidden int
	// PredVirtualMs is the virtual per-iteration server-side prediction
	// overhead injected into LC-ASGD's timeline (Tables 2–3 report the
	// real measured times alongside). nil means the paper's 2.7 ms; a
	// pointer to 0 takes the charge off the critical path.
	PredVirtualMs *float64

	// Ablations (DESIGN.md).
	SumCompensation    bool // use the raw-sum compensation scale
	NaiveStepPredictor bool // last-observed staleness instead of the LSTM
	EMALossPredictor   bool // EMA extrapolation instead of the LSTM

	// Partitioned gives each worker a disjoint shard of the training set
	// instead of the paper's shared-data setting — the extension the
	// paper's conclusion lists as future work.
	Partitioned bool

	// Backend selects the execution backend: BackendSequential (the
	// default) runs worker compute inline on the event loop,
	// BackendConcurrent fans it across goroutines with bit-identical
	// results.
	Backend BackendKind

	// CheckpointEvery arms a checkpoint barrier every that many global
	// epochs (0 disables persistence). At each barrier the engine quiesces —
	// new launches defer while in-flight pipelines drain — and freezes the
	// run into a snapshot delivered to Env.CheckpointSink. The barrier is
	// part of the run's timeline, like a real synchronous checkpoint: runs
	// with the same cadence are bit-identical whether they execute straight
	// through or are killed and resumed at any barrier (see checkpoint.go),
	// but a checkpointed run differs deterministically from an
	// un-checkpointed one, so the cadence is part of ConfigKey.
	CheckpointEvery int

	// CheckpointFullEvery makes every K-th checkpoint a self-contained full
	// snapshot; the checkpoints between them are deltas holding only the
	// sections whose bytes differ from the previous checkpoint's, chained
	// onto it (see checkpoint.go). 1 makes every checkpoint full; 0 means
	// the default (8).
	// Unlike CheckpointEvery this is pure persistence policy — the barrier
	// timeline and every result bit are identical for any value — so it is
	// excluded from ConfigKey, like Backend.
	CheckpointFullEvery int

	// RecoverOpt changes what a worker re-admitted by a scenario Recover
	// event pulls first: the last checkpoint's server snapshot (weights, BN
	// statistics, update counter) instead of fresh server state. The
	// recovered gradient then commits with checkpoint-scale staleness,
	// making the cost of losing a worker's optimizer-side state measurable
	// — the robustness-table variant behind `lcexp -recover-opt`. Requires
	// CheckpointEvery > 0 to have any effect; before the first barrier the
	// pull falls back to fresh state.
	RecoverOpt bool
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.Workers == 0 {
		c.Workers = 1
	}
	if c.EvalEvery == 0 {
		c.EvalEvery = 1
	}
	if c.EvalBatch == 0 {
		c.EvalBatch = 150
	}
	if c.BNDecay == 0 {
		c.BNDecay = 0.2
	}
	if c.LossPredHidden == 0 {
		c.LossPredHidden = 64
	}
	if c.StepPredHidden == 0 {
		c.StepPredHidden = 128
	}
	if c.PredVirtualMs == nil {
		ms := 2.7
		c.PredVirtualMs = &ms
	}
	if c.Backend == "" {
		c.Backend = BackendSequential
	}
	if c.CheckpointFullEvery == 0 {
		c.CheckpointFullEvery = 8
	}
	return c
}

// Env bundles the data and model for a run.
type Env struct {
	Train, Test *data.Dataset
	Build       func(g *rng.RNG) *nn.Sequential
	Cfg         Config

	// CheckpointSink receives each checkpoint taken at the barriers
	// Config.CheckpointEvery arms — typically a snapshot.Store run
	// directory. A nil sink skips serialization but keeps the barrier
	// discipline, so results do not depend on whether anyone is listening.
	// A sink error aborts the run (panic): silently dropping checkpoints
	// would defeat the persistence contract.
	CheckpointSink func(Checkpoint) error

	// Telemetry, when non-nil, attaches a deterministic observability
	// recorder to the run: every engine transition is traced and the
	// metrics registry is populated on the event loop in virtual-clock
	// order (see internal/telemetry and telemetry.go). Recording is
	// passive — results are bit-identical with or without it — and a nil
	// recorder keeps the hot paths at zero allocations. The recorder is
	// single-run (the engine binds it); under CheckpointEvery its state is
	// checkpointed and restored, so a resumed run's telemetry is
	// byte-identical to the uninterrupted run's.
	Telemetry *telemetry.Recorder
}

// Point is one sample of the learning curve.
type Point struct {
	Epoch    int
	Time     float64 // virtual milliseconds since training start
	TrainErr float64
	TestErr  float64
}

// Result is everything a run produces, sufficient to regenerate every
// figure and table row the run participates in.
type Result struct {
	Algo   Algo
	BNMode core.BNMode
	Points []Point

	FinalTrainErr, FinalTestErr float64
	VirtualMs                   float64 // total virtual duration
	Updates                     int
	MeanStaleness               float64
	MaxStaleness                int // worst staleness any committed gradient saw

	// ScenarioEvents counts the scenario timeline events that actually
	// applied during the run (0 without a scenario); redundant events —
	// crashing a dead worker, re-admitting a live one — are not counted.
	ScenarioEvents int

	// LC-ASGD extras.
	LossTrace, StepTrace         []core.TracePoint
	AvgLossPredMs, AvgStepPredMs float64 // real measured per-call times
	AvgIterVirtualMs             float64
}

// Run executes the configured algorithm and returns its result. The
// algorithm is looked up in the strategy registry, so algorithms added via
// RegisterStrategy run through the same engine as the paper's five.
func Run(env Env) Result {
	cfg := env.Cfg.withDefaults()
	env.Cfg = cfg
	if env.Train == nil || env.Test == nil || env.Build == nil {
		panic("ps: Env requires Train, Test and Build")
	}
	if cfg.BatchSize <= 0 || cfg.Epochs <= 0 {
		panic(fmt.Sprintf("ps: bad batch/epochs in %+v", cfg))
	}
	if cfg.CheckpointEvery < 0 {
		panic(fmt.Sprintf("ps: negative CheckpointEvery %d", cfg.CheckpointEvery))
	}
	if cfg.CheckpointFullEvery < 0 {
		panic(fmt.Sprintf("ps: negative CheckpointFullEvery %d", cfg.CheckpointFullEvery))
	}
	if cfg.Scenario != nil {
		if err := cfg.Scenario.Validate(); err != nil {
			panic(fmt.Sprintf("ps: %v", err))
		}
	}
	return newEngine(env, strategyFor(cfg)).run()
}

// workerData returns each worker's view of the training set: the shared
// dataset M times in the paper's setting, or disjoint shards when
// cfg.Partitioned is set.
func workerData(env Env, m int) []*data.Dataset {
	if !env.Cfg.Partitioned {
		out := make([]*data.Dataset, m)
		for i := range out {
			out[i] = env.Train
		}
		return out
	}
	shards := data.Partition(env.Train, m)
	for i, s := range shards {
		if s.Len() < env.Cfg.BatchSize {
			panic(fmt.Sprintf("ps: partitioned shard %d has %d samples < batch %d", i, s.Len(), env.Cfg.BatchSize))
		}
	}
	return shards
}

// server is the shared parameter-server state: the flat weight vector, the
// global BN statistics, the LR schedule and the epoch/progress accounting.
type server struct {
	w       []float64
	bnAcc   *core.BNAccumulator
	sched   opt.StepSchedule
	wd      float64
	lrScale float64 // constant LR multiplier Setup installs (SetLRScale)
	bpe     int     // batches per (global) epoch
	batches int     // batches consumed so far
	updates int
	target  int // total batches to consume
}

func newServer(w []float64, bnAcc *core.BNAccumulator, cfg Config, bpe int) *server {
	return &server{
		w:       w,
		bnAcc:   bnAcc,
		sched:   opt.NewPaperSchedule(cfg.LR, cfg.Epochs),
		wd:      cfg.WeightDecay,
		lrScale: 1,
		bpe:     bpe,
		target:  cfg.Epochs * bpe,
	}
}

// epoch returns the number of completed global epochs.
func (s *server) epoch() int { return s.batches / s.bpe }

// done reports whether the sample budget is exhausted.
func (s *server) done() bool { return s.batches >= s.target }

// lr returns the learning rate in effect now.
func (s *server) lr() float64 { return s.lrScale * s.sched.At(s.epoch()) }

// apply performs one SGD step on the server weights and accounts for the
// consumed batches.
func (s *server) apply(grad []float64, batchesConsumed int) {
	sgdStep(s.w, grad, s.lr(), s.wd)
	s.updates++
	s.batches += batchesConsumed
}

// sgdStep performs w ← w − lr·(g + wd·w), the update every algorithm lands:
// on the server's weights, or on a worker's own model in a decentralized run.
func sgdStep(w, grad []float64, lr, wd float64) {
	if wd != 0 {
		for i, g := range grad {
			w[i] -= lr * (g + wd*w[i])
		}
	} else {
		for i, g := range grad {
			w[i] -= lr * g
		}
	}
}
