// Package trainer wires datasets, models, cost models and algorithms into
// the experiment cells of the paper's evaluation, and provides the
// experiment functions behind each figure and table (see the experiment
// index in DESIGN.md).
package trainer

import (
	"time"

	"lcasgd/internal/cluster"
	"lcasgd/internal/core"
	"lcasgd/internal/data"
	"lcasgd/internal/model"
	"lcasgd/internal/ps"
	"lcasgd/internal/scenario"
	"lcasgd/internal/snapshot"
)

// Profile is one (dataset, model, training recipe) combination. Quick
// profiles keep CPU cost low enough for `go test -bench`; Full profiles are
// closer to paper scale and are run through cmd/lcexp.
type Profile struct {
	Name    string
	Data    data.Config
	Model   model.Config
	Batch   int
	Epochs  int
	LR      float64
	WD      float64 // weight decay
	Lambda  float64 // LC-ASGD compensation mixing
	DCLam   float64 // DC-ASGD variance control
	Cost    cluster.CostModel
	BNDecay float64

	// Predictor widths (paper: 64/128). Quick profiles shrink them to keep
	// the online LSTM training affordable on one CPU.
	LossPredHidden, StepPredHidden int

	// Backend selects the execution backend for every cell run under this
	// profile; empty means the deterministic sequential simulator. The
	// concurrent backend produces bit-identical results while overlapping
	// worker compute across cores (cmd/lcexp -parallel).
	Backend ps.BackendKind

	// Scenario replays a timeline of cluster events (congestion phases,
	// crashes/recoveries, elastic resizes, network partitions) during every
	// cell run under this profile; nil means the paper's stationary cluster
	// (cmd/lcexp -scenario).
	Scenario *scenario.Scenario

	// Topology names the communication graph decentralized cells (AD-PSGD)
	// gossip on — a topology.Parse spec; empty means ring (cmd/lcexp
	// -topology). Parameter-server algorithms ignore it. The robustness
	// grid overrides it per row to compare topologies.
	Topology string

	// Jobs is how many experiment cells a sweep (Fig2/Fig3Panel/Fig5Panel/
	// Table1/Robustness) runs concurrently; values <= 1 run them inline, one
	// after another (cmd/lcexp -jobs). Results are folded in list order, so
	// tables, curves and store artifacts are byte-identical at any Jobs
	// value, on either backend (see sched.go).
	Jobs int

	// Progress, when non-nil, is called by a sweep after every completed
	// cell with the number of cells finished so far, the sweep's cell count,
	// the wall time since the sweep started, and the completed cell's
	// ps.ConfigKey (cmd/lcexp -v uses the key prefix to name the cell and
	// derives an ETA from done/total/elapsed). With Jobs > 1 it is invoked
	// from the sweep's goroutines, one call at a time, so implementations
	// need no synchronization of their own; they must not block and should
	// write to stderr, keeping stdout (tables, charts, CSV) byte-identical
	// with and without progress reporting.
	Progress func(done, total int, elapsed time.Duration, key string)

	// Telemetry, when non-nil, attaches a fresh telemetry.Recorder to every
	// cell run under this profile (deduplicated by ps.ConfigKey — a baseline
	// cell shared by several sweeps records once) and collects them for the
	// invocation-wide trace/metrics dumps (cmd/lcexp -trace-out,
	// -metrics-out). Telemetry is passive: results are bit-identical with
	// and without it, and the collected output is byte-identical at any
	// Jobs value.
	Telemetry *Telemetry

	// Store, when non-nil, persists every cell run under this profile into
	// the experiment store: config, checkpoints at every CkptEvery epochs,
	// the learning curve and the final result, keyed by ps.ConfigKey
	// (cmd/lcexp -ckpt-dir). With Resume set, completed cells load their
	// stored result instead of re-running and interrupted cells resume from
	// their last checkpoint — which is what lets a killed sweep continue
	// without redoing finished work (cmd/lcexp -resume).
	Store     *snapshot.Store
	CkptEvery int
	Resume    bool

	// CkptKeep is how many checkpoints each run directory retains (cmd/lcexp
	// -ckpt-keep); values below 1 mean 1, today's latest-only behavior.
	// Keeping more lets resume fall back past a corrupted latest checkpoint.
	CkptKeep int

	// CkptFullEvery is the self-contained checkpoint cadence (cmd/lcexp
	// -ckpt-full-every): every CkptFullEvery-th persisted checkpoint is a
	// full snapshot, the ones between are deltas chained onto it. 0 means
	// ps's default (8); 1 makes every checkpoint full.
	CkptFullEvery int

	// Render makes every cell load its persisted result from the Store
	// instead of computing anything (cmd/lcexp -render): figures and tables
	// re-render from a completed sweep's artifacts. A cell whose result is
	// missing panics with *RenderMissingError rather than silently
	// recomputing.
	Render bool
}

// QuickCIFAR is the CPU-budget CIFAR-10-like cell used by tests and benches.
func QuickCIFAR() Profile {
	d := data.CIFARConfig()
	d.Train, d.Test = 800, 200
	m := model.Config{
		Name: "cifarq", InC: 3, InH: 8, InW: 8,
		Stem: 6, StageReps: []int{1, 1, 1}, NumClasses: 10,
	}
	return Profile{
		Name: "cifar-quick", Data: d, Model: m,
		Batch: 20, Epochs: 12, LR: 0.08, WD: 5e-3, Lambda: 1, DCLam: 0.3,
		Cost: cluster.CIFARCostModel(), BNDecay: 0.2,
		LossPredHidden: 24, StepPredHidden: 32,
	}
}

// FullCIFAR approaches the paper's CIFAR-10 setting (scaled per DESIGN.md).
func FullCIFAR() Profile {
	p := QuickCIFAR()
	p.Name = "cifar-full"
	p.Data = data.CIFARConfig()
	p.Model = model.ResNetLite18(10)
	p.Batch = 50
	p.Epochs = 40
	p.LossPredHidden, p.StepPredHidden = 64, 128
	return p
}

// QuickImageNet is the CPU-budget ImageNet-like cell.
func QuickImageNet() Profile {
	d := data.ImageNetConfig()
	d.Train, d.Test = 1080, 270
	// The quick profile trades sample count for task difficulty: with 40
	// samples per class (vs the full profile's 100) the prototypes carry
	// more signal so the task stays learnable inside the CPU budget.
	d.SignalScale = 0.42
	m := model.Config{
		Name: "imagenetq", InC: 3, InH: 12, InW: 12,
		Stem: 8, StageReps: []int{1, 1, 1}, NumClasses: 27,
	}
	return Profile{
		Name: "imagenet-quick", Data: d, Model: m,
		Batch: 27, Epochs: 8, LR: 0.08, WD: 5e-3, Lambda: 1, DCLam: 0.3,
		Cost: cluster.ImageNetCostModel(), BNDecay: 0.2,
		LossPredHidden: 24, StepPredHidden: 32,
	}
}

// FullImageNet approaches the paper's ImageNet setting (scaled).
func FullImageNet() Profile {
	p := QuickImageNet()
	p.Name = "imagenet-full"
	p.Data = data.ImageNetConfig()
	p.Model = model.ResNetLite50(27)
	p.Batch = 50
	p.Epochs = 24
	p.LossPredHidden, p.StepPredHidden = 64, 128
	return p
}

// cellConfig assembles the ps.Config for one experiment cell.
func cellConfig(p Profile, algo ps.Algo, workers int, bnMode core.BNMode, seed uint64) ps.Config {
	return ps.Config{
		Algo:                algo,
		Workers:             workers,
		BatchSize:           p.Batch,
		Epochs:              p.Epochs,
		LR:                  p.LR,
		Lambda:              p.Lambda,
		DCLambda:            p.DCLam,
		WeightDecay:         p.WD,
		BNMode:              bnMode,
		BNDecay:             p.BNDecay,
		Seed:                seed,
		Cost:                p.Cost,
		LossPredHidden:      p.LossPredHidden,
		StepPredHidden:      p.StepPredHidden,
		Backend:             p.Backend,
		Scenario:            p.Scenario,
		Topology:            p.Topology,
		CheckpointEvery:     p.CkptEvery,
		CheckpointFullEvery: p.CkptFullEvery,
	}
}

// RunCell executes one experiment cell under the profile. Dataset
// generation is deterministic, so repeated cells see identical data.
func RunCell(p Profile, algo ps.Algo, workers int, bnMode core.BNMode, seed uint64) ps.Result {
	return RunCellCfg(p, algo, workers, bnMode, seed, nil)
}

// RunCellCfg is RunCell with full control of the ps.Config for ablations:
// mutate receives the assembled config before the run.
func RunCellCfg(p Profile, algo ps.Algo, workers int, bnMode core.BNMode, seed uint64, mutate func(*ps.Config)) ps.Result {
	cfg := cellConfig(p, algo, workers, bnMode, seed)
	if mutate != nil {
		mutate(&cfg)
	}
	return runConfig(p, cfg, ps.ConfigKey(cfg))
}

// runConfig runs one cell under the profile; key is ps.ConfigKey(cfg), which
// names the cell to telemetry and to the store.
func runConfig(p Profile, cfg ps.Config, key string) ps.Result {
	// Cached: sweeps run many cells against the same config, and concurrent
	// cells (Profile.Jobs) share one immutable dataset instead of each
	// regenerating it.
	train, test := data.GenerateCached(p.Data)
	env := ps.Env{Train: train, Test: test, Build: p.Model.Build, Cfg: cfg}
	if p.Telemetry != nil && !p.Render {
		// attach returns nil for a duplicate cell (same ConfigKey already
		// recording elsewhere in the invocation) — the run then simply
		// carries no recorder, which is indistinguishable by results.
		env.Telemetry = p.Telemetry.attach(cfg, key)
	}
	if p.Store != nil {
		return runCellPersisted(p, env, key)
	}
	if p.Render {
		panic("trainer: Render mode requires a Store (-render needs -ckpt-dir)")
	}
	return ps.Run(env)
}
