package main

import (
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"lcasgd/internal/cluster"
	"lcasgd/internal/core"
	"lcasgd/internal/data"
	"lcasgd/internal/model"
	"lcasgd/internal/nn"
	"lcasgd/internal/ps"
	"lcasgd/internal/rng"
	"lcasgd/internal/scenario"
	"lcasgd/internal/snapshot"
	"lcasgd/internal/tensor"
	"lcasgd/internal/topology"
	"lcasgd/internal/trainer"
)

// Workload sizes. They are frozen: only a later benchmark issue may change
// them. The issue measured bodies of 23-32 s at its own sizes on this box; the
// driver's total-time cap leaves about 25 s for a whole run, set-ups
// included, so one body runs per run and the epoch and iteration counts are
// cut by up to 1.6x. Samples, models, batch sizes, fleet sizes and the eval
// cadence are the issue's, so the work per epoch and its split between the
// layers are unchanged (README, "Sizes"). The smoke sizes exist for
// bench_test.go alone.
type panelSize struct {
	epochs, workers int
	// train, test and stem are 0 to keep the profile's own; smoke shrinks them.
	train, test, stem int
}

var (
	fig3Size   = panelSize{epochs: 8, workers: 4} // QuickCIFAR runs 12
	fig5Size   = panelSize{epochs: 5, workers: 8} // QuickImageNet runs 8
	robustSize = panelSize{epochs: 4, workers: 8} // the issue runs 6, killed after 3
	// robustKillEpoch is the last checkpoint that survives the simulated
	// kill -9; with CkptFullEvery=4 it is a delta chained onto epoch 1.
	robustKillEpoch = 2

	fleetWorkers, fleetIters     = 4096, 32 // SSGD, ASGD, AD-PSGD; the issue runs 48 iterations
	fleetLCWorkers, fleetLCIters = 1024, 6  // LC-ASGD: its rollout cost grows with M; the issue runs 8
	fleetBarriers                = 8
)

// applySmokeSizes shrinks everything, the model included: evaluation always
// runs whole 150-row batches, so at the profiles' widths it alone would take
// the smoke test most of a minute.
func applySmokeSizes() {
	fig3Size = panelSize{epochs: 3, workers: 2, train: 150, test: 150, stem: 2}
	fig5Size = panelSize{epochs: 3, workers: 2, train: 150, test: 150, stem: 2}
	robustSize = panelSize{epochs: 3, workers: 2, train: 150, test: 150, stem: 2}
	fleetWorkers, fleetIters = 64, 4
	fleetLCWorkers, fleetLCIters = 16, 4
	probeBudget = 2 * time.Millisecond
}

// summary is what the harness keeps of one cell: the numbers that identify
// its trajectory, plus wall-clock extras that stay out of the digest.
type summary struct {
	Name          string
	Algo          ps.Algo
	Churn         bool
	FinalTestErr  float64
	VirtualMs     float64
	MeanStaleness float64
	MaxStaleness  int
	Updates       int
	Events        int
	// Points is nil when the cell came back as a table row, which does not
	// carry its curve. EvalEvery and Epochs are the cell's configured eval
	// boundaries, which its curve is checked against.
	Points            []ps.Point
	EvalEvery, Epochs int

	WallS                  float64
	LossPredMs, StepPredMs float64
	// Plain marks a cell that was a bare ps.Run of the workload's config for
	// its algorithm, so a probe may take it as its baseline.
	Plain bool
}

func summarize1(name string, churn bool, evalEvery, epochs int, r ps.Result) summary {
	return summary{
		Name: name, Algo: r.Algo, Churn: churn,
		FinalTestErr: r.FinalTestErr, VirtualMs: r.VirtualMs,
		MeanStaleness: r.MeanStaleness, MaxStaleness: r.MaxStaleness,
		Updates: r.Updates, Events: r.ScenarioEvents,
		Points: r.Points, EvalEvery: evalEvery, Epochs: epochs,
		LossPredMs: r.AvgLossPredMs, StepPredMs: r.AvgStepPredMs,
	}
}

// rowName names one cell of the robustness grid.
func rowName(scenario string, algo ps.Algo, topology string) string {
	name := scenario + "/" + string(algo)
	if topology != "" {
		name += "/" + topology
	}
	return name
}

func summarizeRow(r trainer.RobustnessRow, churn bool) summary {
	return summary{
		Name: rowName(r.Scenario, r.Algo, r.Topology), Algo: r.Algo, Churn: churn,
		FinalTestErr: r.FinalTestErr, VirtualMs: r.VirtualMs,
		MeanStaleness: r.MeanStaleness, MaxStaleness: r.MaxStaleness,
		Updates: r.Updates, Events: r.Events,
	}
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// digest is the CRC-32C over every deterministic number of the cells, float
// bits included: equal digests mean bitwise-equal trajectories.
func digest(cells []summary) uint32 {
	var buf []byte
	put := func(v uint64) {
		for i := 0; i < 8; i++ {
			buf = append(buf, byte(v>>(8*i)))
		}
	}
	for _, c := range cells {
		buf = append(buf, c.Name...)
		put(math.Float64bits(c.FinalTestErr))
		put(math.Float64bits(c.VirtualMs))
		put(math.Float64bits(c.MeanStaleness))
		put(uint64(c.MaxStaleness))
		put(uint64(c.Updates))
		put(uint64(c.Events))
		for _, p := range c.Points {
			put(uint64(p.Epoch))
			put(math.Float64bits(p.Time))
			put(math.Float64bits(p.TrainErr))
			put(math.Float64bits(p.TestErr))
		}
	}
	return crc32.Checksum(buf, castagnoli)
}

// outcome is one execution of a workload's body.
type outcome struct {
	cells     []summary
	wallS     float64 // the timed part only
	resumeS   float64 // robust_store: the Resume=true re-run, part of wallS
	samples   int     // training samples consumed
	barriers  int     // checkpoints taken
	ckptBytes int64
	ckptSum   uint32 // fleet_scale: XOR of the CRC-32C of every checkpoint handed to the sink
}

// state is what one set-up hands to the timed bodies and the layer probes.
type state struct {
	workers int
	// env carries the workload's data and model builder; cfgFor returns the
	// ps.Config the workload runs (or would run) a cell of algo with, so
	// the probes replay each layer at the workload's own shapes.
	env    ps.Env
	cfgFor func(ps.Algo) ps.Config
	// geom and outC are the model's largest convolution (for the MLP, its
	// widest dense layer written as a 1x1 convolution).
	geom tensor.ConvGeom
	outC int
	// ckptCfg is the cell the checkpoint probes run: an ASGD cell with a
	// barrier per epoch on the panel profiles (the fig workloads take none of
	// their own), the AD-PSGD cell on fleet_scale.
	ckptCfg ps.Config
	// generate is the workload's cold dataset generation.
	generate func() (train, test *data.Dataset)

	// body is what a user runs; cells is the same work issued cell by cell
	// under spans.
	body    func(chk *checker) outcome
	cells   func(tr *tracer, chk *checker) outcome
	cleanup func()
}

func nproc() int { return runtime.GOMAXPROCS(0) }

// samplesPerEpoch is what one global epoch consumes: whole batches only.
func samplesPerEpoch(train, batch int) int { return train / batch * batch }

// sized shrinks a quick profile to the workload's frozen size.
func sized(p trainer.Profile, s panelSize) trainer.Profile {
	p.Epochs = s.epochs
	if s.train > 0 {
		p.Data.Train, p.Data.Test, p.Model.Stem = s.train, s.test, s.stem
	}
	return p
}

// coldSetup is the part of set-up every workload shares: dataset generation
// and a model build, both cold, then a one-epoch warm-up cell whose mutate
// hook hands back the ps.Config the trainer assembled. It also returns the
// simulated milliseconds that epoch took.
func coldSetup(p trainer.Profile, workers int, seed uint64) (base ps.Config, epochMs float64) {
	data.Generate(p.Data)
	p.Model.Build(rng.New(seed))
	warm := p
	warm.Epochs = 1
	warm.Jobs = 1
	res := trainer.RunCellCfg(warm, ps.ASGD, workers, core.BNAsync, seed, func(c *ps.Config) { base = *c })
	return base, res.VirtualMs
}

func panelState(p trainer.Profile, s panelSize, base ps.Config) *state {
	train, test := data.GenerateCached(p.Data)
	m := p.Model
	cfgFor := func(a ps.Algo) ps.Config {
		c := base
		c.Algo, c.Workers, c.Epochs, c.Backend = a, s.workers, p.Epochs, p.Backend
		return c
	}
	ckptCfg := cfgFor(ps.ASGD)
	ckptCfg.CheckpointEvery, ckptCfg.CheckpointFullEvery = 1, 4
	return &state{
		workers: s.workers,
		env:     ps.Env{Train: train, Test: test, Build: m.Build},
		cfgFor:  cfgFor,
		// The first stage's 3x3 convolutions run at full resolution on Stem
		// channels: the largest im2col matrix of a ResNetLite, and level
		// with the later stages for the most multiply-adds.
		geom:     tensor.ConvGeom{InC: m.Stem, InH: m.InH, InW: m.InW, KH: 3, KW: 3, Stride: 1, Pad: 1},
		outC:     m.Stem,
		ckptCfg:  ckptCfg,
		generate: func() (train, test *data.Dataset) { return data.Generate(p.Data) },
		cleanup:  func() {},
	}
}

// setupPanel builds fig3_seq and fig5_par: a figure panel of the paper, run
// whole by the body and cell by cell under spans.
func setupPanel(p trainer.Profile, s panelSize, algos []ps.Algo, panel func(trainer.Profile, int, uint64) trainer.CurveSet, seed uint64) *state {
	p = sized(p, s)
	p.Jobs = 1
	base, _ := coldSetup(p, s.workers, seed)
	st := panelState(p, s, base)
	perCell := p.Epochs * samplesPerEpoch(p.Data.Train, p.Batch)
	st.body = func(*checker) outcome {
		var o outcome
		t := time.Now()
		cs := panel(p, s.workers, seed)
		o.wallS = time.Since(t).Seconds()
		for _, a := range cs.Order {
			o.cells = append(o.cells, summarize1(string(a), false, 1, p.Epochs, cs.Results[a]))
		}
		o.samples = perCell * len(o.cells)
		return o
	}
	st.cells = func(tr *tracer, _ *checker) outcome {
		var o outcome
		o.wallS = tr.do("trainer.sweep", func() {
			for _, a := range algos {
				var res ps.Result
				w := tr.do("ps.cell."+string(a), func() { res = trainer.RunCell(p, a, s.workers, core.BNAsync, seed) })
				c := summarize1(string(a), false, 1, p.Epochs, res)
				c.WallS, c.Plain = w, true
				o.cells = append(o.cells, c)
			}
		})
		o.samples = perCell * len(o.cells)
		return o
	}
	return st
}

func setupFig3(seed uint64) *state {
	algos := append([]ps.Algo{ps.SGD}, trainer.DistributedAlgos...)
	return setupPanel(trainer.QuickCIFAR(), fig3Size, algos, trainer.Fig3Panel, seed)
}

func setupFig5(seed uint64) *state {
	p := trainer.QuickImageNet()
	p.Backend = ps.BackendConcurrent
	return setupPanel(p, fig5Size, trainer.DistributedAlgos, trainer.Fig5Panel, seed)
}

// setupRobust builds robust_store: the persisted robustness sweep, a
// simulated kill -9, and the resumed sweep that reads what the first wrote.
func setupRobust(seed uint64, tmp string) *state {
	s := robustSize
	p := sized(trainer.QuickCIFAR(), s)
	p.Jobs = nproc()
	p.CkptEvery, p.CkptKeep, p.CkptFullEvery = 1, 6, 4
	// The churn timeline spans the run's simulated duration, which the
	// warm-up epoch measures; everything else about it comes from the seed.
	base, epochMs := coldSetup(p, s.workers, seed)
	scns := []scenario.Scenario{scenario.None(), scenario.Randomized(seed, s.workers, epochMs*float64(p.Epochs), 12)}

	dir, err := os.MkdirTemp(tmp, "robust-store-")
	if err != nil {
		fatal("robust_store: %v", err)
	}
	freshStore := func() *snapshot.Store {
		if err := os.RemoveAll(dir); err != nil {
			fatal("robust_store: %v", err)
		}
		store, err := snapshot.OpenStore(dir)
		if err != nil {
			fatal("robust_store: %v", err)
		}
		return store
	}
	freshStore()

	st := panelState(p, s, base)
	st.cleanup = func() { os.RemoveAll(dir) }
	churnCfg := st.cfgFor
	st.cfgFor = func(a ps.Algo) ps.Config {
		c := churnCfg(a)
		c.Scenario = &scns[1]
		return c
	}
	st.ckptCfg = st.cfgFor(ps.ASGD) // the profile's own cadence: a barrier per epoch, full every 4th
	perEpoch := samplesPerEpoch(p.Data.Train, p.Batch)
	nCells := len(scns) * len(trainer.RobustnessEntries)
	account := func(o *outcome, store *snapshot.Store) {
		o.samples = nCells * perEpoch * (p.Epochs + p.Epochs - robustKillEpoch)
		o.barriers = nCells * (p.Epochs + p.Epochs - robustKillEpoch)
		o.ckptBytes = dirBytes(filepath.Join(store.Root(), "runs"))
	}

	st.body = func(chk *checker) outcome {
		var o outcome
		q := p
		q.Store = freshStore()
		t := time.Now()
		rows := trainer.Robustness(q, s.workers, seed, scns, trainer.RobustnessOpts{})
		sweepS := time.Since(t).Seconds()
		account(&o, q.Store)
		killAfter(q.Store, robustKillEpoch)
		q.Resume = true
		t = time.Now()
		resumed := trainer.Robustness(q, s.workers, seed, scns, trainer.RobustnessOpts{})
		o.resumeS = time.Since(t).Seconds()
		o.wallS = sweepS + o.resumeS
		var again []summary
		for i := range rows {
			churn := rows[i].Scenario != scns[0].Name
			o.cells = append(o.cells, summarizeRow(rows[i], churn))
			again = append(again, summarizeRow(resumed[i], churn))
		}
		chk.check(digest(again) == digest(o.cells), "robust_store: resumed rows differ from the uninterrupted rows")
		chk.check(curvesComplete(q.Store, p.Epochs), "robust_store: a stored curve misses an eval boundary")
		return o
	}

	st.cells = func(tr *tracer, chk *checker) outcome {
		var o outcome
		q := p
		q.Jobs = 1
		q.Store = freshStore()
		pass := func(span string) []summary {
			var out []summary
			for i := range scns {
				scn := &scns[i]
				for _, e := range trainer.RobustnessEntries {
					var res ps.Result
					w := tr.do(span+string(e.Algo), func() {
						res = trainer.RunCellCfg(q, e.Algo, s.workers, core.BNAsync, seed, func(c *ps.Config) {
							c.Scenario, c.Topology = scn, e.Topology
						})
					})
					c := summarize1(rowName(scn.Name, e.Algo, e.Topology), i > 0, 1, p.Epochs, res)
					c.WallS = w
					out = append(out, c)
				}
			}
			return out
		}
		sweepS := tr.do("trainer.sweep", func() { o.cells = pass("ps.cell.") })
		account(&o, q.Store)
		tr.do("harness.kill", func() { killAfter(q.Store, robustKillEpoch) })
		q.Resume = true
		var again []summary
		o.resumeS = tr.do("trainer.resume", func() { again = pass("ps.resume.") })
		o.wallS = sweepS + o.resumeS
		chk.check(digest(again) == digest(o.cells), "robust_store: cell-by-cell resumed results differ from uninterrupted")
		return o
	}

	return st
}

// killAfter simulates kill -9 after the barrier of the given epoch, using
// the store's documented layout: every run loses its result, its curve and
// the checkpoints of later epochs.
func killAfter(store *snapshot.Store, epoch int) {
	names, err := store.Runs()
	if err != nil {
		fatal("kill: %v", err)
	}
	for _, name := range names {
		rd, err := store.Run(name)
		if err != nil {
			fatal("kill: %v", err)
		}
		metas, err := rd.Checkpoints()
		if err != nil {
			fatal("kill: %v", err)
		}
		doomed := []string{"result.json", "curve.json"}
		for _, m := range metas {
			if m.Epoch > epoch {
				doomed = append(doomed, fmt.Sprintf("ckpt-%08d.bin", m.Epoch), fmt.Sprintf("ckpt-%08d.json", m.Epoch))
			}
		}
		for _, f := range doomed {
			if err := os.Remove(filepath.Join(rd.Dir(), f)); err != nil {
				fatal("kill: %v", err)
			}
		}
	}
}

// curvesComplete reports whether every stored run holds a result with one
// curve point per eval boundary.
func curvesComplete(store *snapshot.Store, epochs int) bool {
	names, err := store.Runs()
	if err != nil || len(names) == 0 {
		return false
	}
	for _, name := range names {
		rd, err := store.Run(name)
		if err != nil {
			return false
		}
		var res ps.Result
		if err := rd.LoadResult(&res); err != nil || !curveComplete(res.Points, 1, epochs, res.Algo != ps.SSGD) {
			return false
		}
	}
	return true
}

// curveComplete reports whether points is a whole learning curve: epochs
// strictly increasing up to the configured budget, at most one point per
// eval boundary after an optional point at epoch 0 (taken when the first
// update does not end an epoch). With exact set, every boundary (every,
// 2*every, ... epochs) has its point; SSGD is exempt, because one of its
// updates folds a batch per worker and may step over boundaries.
func curveComplete(points []ps.Point, every, epochs int, exact bool) bool {
	if len(points) > 0 && points[0].Epoch == 0 {
		points = points[1:]
	}
	n := len(points)
	if n == 0 || n > epochs/every || points[n-1].Epoch < epochs {
		return false
	}
	for i, p := range points {
		if exact && p.Epoch != (i+1)*every || i > 0 && p.Epoch <= points[i-1].Epoch {
			return false
		}
	}
	return !exact || n == epochs/every
}

func dirBytes(dir string) int64 {
	var n int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
		return err
	})
	if err != nil {
		fatal("measure %s: %v", dir, err)
	}
	return n
}

// fleetCell is one direct ps.Run of fleet_scale.
type fleetCell struct {
	name string
	env  ps.Env
}

// fleetConfig is the near-empty ML task of the engine's own fleet-scale
// benchmarks, rebuilt from exported API: 4 samples, a 4-16-16-4 MLP, one
// batch per epoch, virtual iterations of about a second.
func fleetConfig(algo ps.Algo, workers, iters int, seed uint64) ps.Config {
	scn := scenario.Randomized(seed, workers, float64(iters)*1000, workers/8)
	epochs := workers * iters
	return ps.Config{
		Algo: algo, Workers: workers, BatchSize: 4, EvalBatch: 4, EvalEvery: workers,
		Epochs: epochs, LR: 0.05, Lambda: 1, DCLambda: 0.3,
		BNMode: core.BNAsync, Seed: seed,
		Cost: cluster.CostModel{
			MeanComp: 900, MeanComm: 50, Sigma: 0.2,
			Heterogeneity: 0.3, StragglerProb: 0.02, StragglerFactor: 3,
		},
		LossPredHidden: 8, StepPredHidden: 8,
		Backend:  ps.BackendSequential,
		Scenario: &scn, Topology: "ring",
		CheckpointEvery: epochs / fleetBarriers, CheckpointFullEvery: 4,
	}
}

func setupFleet(seed uint64) *state {
	d := data.Config{
		Classes: 4, C: 1, H: 2, W: 2, Train: 4, Test: 4,
		NoiseSigma: 0.8, SignalScale: 0.5, Smoothing: 1, Seed: 99,
	}
	train, test := data.Generate(d)
	build := func(g *rng.RNG) *nn.Sequential { return model.MLP("fleet", 4, 16, 4, g) }
	build(rng.New(seed))
	topology.Ring(fleetWorkers)
	topology.Gossip(fleetWorkers, rng.New(seed))

	env := ps.Env{Train: train, Test: test, Build: build}
	// The churn timeline depends on the fleet size, not the algorithm, so
	// the two configs are generated once and cfgFor only names the algorithm.
	wide := fleetConfig("", fleetWorkers, fleetIters, seed)
	lc := fleetConfig("", fleetLCWorkers, fleetLCIters, seed)
	cfgFor := func(a ps.Algo) ps.Config {
		c := wide
		if a == ps.LCASGD {
			c = lc
		}
		c.Algo = a
		return c
	}
	var cells []fleetCell
	for _, a := range []ps.Algo{ps.SSGD, ps.ASGD, ps.ADPSGD, ps.LCASGD} {
		e := env
		e.Cfg = cfgFor(a)
		cells = append(cells, fleetCell{string(a), e})
	}
	// The warm-up is the ASGD cell at one iteration per worker.
	warm := env
	warm.Cfg = fleetConfig(ps.ASGD, fleetWorkers, 1, seed)
	ps.Run(warm)

	run := func(tr *tracer) outcome {
		var o outcome
		o.wallS = tr.do("harness.cells", func() {
			for _, c := range cells {
				e := c.env
				// The sink keeps each checkpoint's length and checksum and
				// drops the bytes, so encode cost is paid and memory is not.
				e.CheckpointSink = func(ck ps.Checkpoint) error {
					o.barriers++
					o.ckptBytes += int64(len(ck.Data))
					o.ckptSum ^= snapshot.Checksum(ck.Data)
					return nil
				}
				var res ps.Result
				w := tr.do("ps.cell."+c.name, func() { res = ps.Run(e) })
				cs := summarize1(c.name, true, e.Cfg.EvalEvery, e.Cfg.Epochs, res)
				cs.WallS, cs.Plain = w, true
				o.cells = append(o.cells, cs)
				o.samples += e.Cfg.Epochs * e.Cfg.BatchSize
			}
		})
		return o
	}
	return &state{
		workers: fleetWorkers,
		env:     env,
		cfgFor:  cfgFor,
		geom:    tensor.ConvGeom{InC: 4, InH: 1, InW: 1, KH: 1, KW: 1, Stride: 1, Pad: 0},
		outC:    16,
		// Every AD-PSGD worker carries a full parameter replica, so its
		// snapshot is the largest the workload takes.
		ckptCfg:  cfgFor(ps.ADPSGD),
		generate: func() (*data.Dataset, *data.Dataset) { return data.Generate(d) },
		body:     func(*checker) outcome { return run(nil) },
		cells:    func(tr *tracer, _ *checker) outcome { return run(tr) },
		cleanup:  func() {},
	}
}

// setups maps each workload of the registry to its set-up.
func setups(tmp string) map[string]func(seed uint64) *state {
	return map[string]func(uint64) *state{
		"fig3_seq":     setupFig3,
		"fig5_par":     setupFig5,
		"robust_store": func(seed uint64) *state { return setupRobust(seed, tmp) },
		"fleet_scale":  setupFleet,
	}
}
