package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"time"

	"lcasgd/internal/core"
	"lcasgd/internal/data"
	"lcasgd/internal/lstm"
	"lcasgd/internal/nn"
	"lcasgd/internal/ps"
	"lcasgd/internal/report"
	"lcasgd/internal/rng"
	"lcasgd/internal/simclock"
	"lcasgd/internal/snapshot"
	"lcasgd/internal/telemetry"
	"lcasgd/internal/tensor"
	"lcasgd/internal/topology"
)

// probeBudget is how long each per-call microbenchmark repeats its call.
// Smoke sizes cut it.
var probeBudget = 80 * time.Millisecond

// prober collects the per-layer metrics of one traced run.
type prober struct {
	st     *state
	tr     *tracer
	chk    *checker
	seed   uint64
	traced outcome
	v      map[string]metricValue
}

func (p *prober) put(name string, value float64, detail string) {
	p.v[name] = metricValue{Value: value, Detail: detail}
}

// measure runs a per-call microbenchmark inside a span.
func (p *prober) measure(name string, unit float64, f func()) timing {
	var t timing
	p.tr.do("probe."+name, func() { t = timeCalls(probeBudget, unit, f) })
	return t
}

// timed is measure for a metric that is the call's median time.
func (p *prober) timed(name string, unit float64, f func()) timing {
	t := p.measure(name, unit, f)
	p.put(name, t.P50, fmt.Sprintf("p50 of %d calls, p%.0f %.4g", t.N, t.TailAt, t.Tail))
	return t
}

// cell runs one training cell of the workload's shape directly through
// ps.Run, inside a span; tune may change the Env.
func (p *prober) cell(span string, cfg ps.Config, tune func(*ps.Env)) summary {
	env := p.st.env
	env.Cfg = cfg
	if tune != nil {
		tune(&env)
	}
	var res ps.Result
	wall := p.tr.do("probe."+span, func() { res = ps.Run(env) })
	c := summarize1(string(cfg.Algo), cfg.Scenario != nil, cfg.EvalEvery, cfg.Epochs, res)
	c.WallS = wall
	return c
}

// baseline is the workload's cell of algo with nothing changed: the traced
// cell itself where the workload issues bare ps.Run cells, else a probe cell.
func (p *prober) baseline(a ps.Algo) summary {
	if c := firstOf(p.traced.cells, a); c.Plain {
		return c
	}
	return p.cell("ps.cell."+string(a), p.st.cfgFor(a), nil)
}

// runTraced is a --trace 1 run: the body once as a user runs it, then cell
// by cell under spans, then every layer replayed at the workload's own
// shapes.
func runTraced(workload string, opt options) result {
	chk := &checker{}
	tr := newTracer(workload)
	var st *state
	tr.do("harness.setup", func() { st = setups(opt.tmpDir())[workload](opt.seed) })
	defer st.cleanup()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var user outcome
	tr.do("harness.body", func() { user = st.body(chk) })
	runtime.ReadMemStats(&after)
	rssMB := peakRSSMB() // before the cells and probes below raise it
	chk.checkCells(workload, user.cells)

	traced := st.cells(tr, chk)
	chk.checkCells(workload, traced.cells)
	// The untraced body runs the cells the way a user does (the figure
	// panel, or the sweep at Jobs=nproc); traced and issued one by one they
	// must match it bitwise.
	chk.check(digest(curveless(user.cells)) == digest(curveless(traced.cells)),
		"%s: traced cells issued one by one differ from the untraced body's", workload)

	p := &prober{st: st, tr: tr, chk: chk, seed: opt.seed, traced: traced, v: map[string]metricValue{}}
	p.put("peak_rss_mb", rssMB, "VmHWM after set-up and one body")
	p.put("go.alloc_mb", float64(after.TotalAlloc-before.TotalAlloc)/1e6, "MemStats.TotalAlloc over one body")
	p.put("go.gc_count", float64(after.NumGC-before.NumGC), "MemStats.NumGC over one body")
	p.bodyCounts(user)
	p.cellTimes()
	evalS := p.asgdProbes()
	p.backendProbe()
	ckptS := p.checkpointProbes(opt, user)
	p.schedulerMetrics(user)
	p.kernelProbes()
	trainMs := p.networkProbes()
	p.predictorProbes()
	p.put("simclock.ns_per_event", clockNsPerEvent(st.workers), fmt.Sprintf("schedule+step at queue depth %d", st.workers))

	// Busy-time estimates: unit time x count at the workload's shapes.
	// They are CPU-seconds, so on fig5_par and robust_store, which use both
	// cores, they may exceed the wall they are compared with.
	// The predictors' share is the program's own per-call training times plus
	// the k-step rollout, which those do not include, per LC-ASGD update.
	lc := firstOf(traced.cells, ps.LCASGD)
	perUpdateS := (lc.LossPredMs+lc.StepPredMs)/1e3 + p.v["core.losspred_predict_us"].Value/1e6
	est := map[string]float64{
		"nn.train_s":      trainMs / 1e3 * float64(traced.samples) / float64(st.cfgFor(ps.ASGD).BatchSize),
		"ps.eval_s":       evalS,
		"core.predict_s":  perUpdateS * float64(sumUpdates(traced.cells, ps.LCASGD)),
		"ps.ckpt_s":       ckptS,
		"wall_s":          traced.wallS,
		"untraced_wall_s": user.wallS,
	}
	unattributed := traced.wallS - est["nn.train_s"] - est["ps.eval_s"] - est["core.predict_s"] - est["ps.ckpt_s"]
	est["unattributed_s"] = unattributed
	p.put("unattributed_s", unattributed, fmt.Sprintf("of %.3f s cell by cell: nn %.3f, eval %.3f, predictors %.3f, checkpoints %.3f",
		traced.wallS, est["nn.train_s"], evalS, est["core.predict_s"], ckptS))

	res := emit(perLayer, p.v, chk)
	if err := tr.write(opt.outDir(), est, res.Metrics); err != nil {
		fatal("write trace: %v", err)
	}
	return res
}

// curveless drops what a table row does not carry, so cells that came back
// as ps.Results compare with cells that came back as rows.
func curveless(cells []summary) []summary {
	out := append([]summary(nil), cells...)
	for i := range out {
		out[i].Points = nil
	}
	return out
}

// cellDigest is digest for one cell, whatever it was called.
func cellDigest(c summary) uint32 {
	c.Name = ""
	return digest([]summary{c})
}

// evalBatchOf is the inference batch a config evaluates with.
func evalBatchOf(cfg ps.Config) int {
	if cfg.EvalBatch == 0 {
		return 150 // ps's default
	}
	return cfg.EvalBatch
}

func firstOf(cells []summary, algo ps.Algo) summary {
	for _, c := range cells {
		if c.Algo == algo {
			return c
		}
	}
	return summary{}
}

func sumUpdates(cells []summary, algo ps.Algo) int {
	n := 0
	for _, c := range cells {
		if c.Algo == algo {
			n += c.Updates
		}
	}
	return n
}

// bodyCounts emits the exact-repeat numbers of the body as a user ran it.
func (p *prober) bodyCounts(user outcome) {
	var events, maxStale int
	var stale, testErr, virtualMs float64
	for _, c := range user.cells {
		events += c.Events
		stale += c.MeanStaleness
		testErr += c.FinalTestErr
		virtualMs += c.VirtualMs
		maxStale = max(maxStale, c.MaxStaleness)
	}
	n := float64(len(user.cells))
	p.put("scenario.events_applied", float64(events), "sum over the body's cells")
	p.put("ps.mean_staleness", stale/n, "mean over the body's cells")
	p.put("ps.max_staleness", float64(maxStale), "max over the body's cells")
	p.put("ps.result_crc32", float64(digest(user.cells)), "CRC-32C over every cell's numbers, float bits included")
	p.put("final_test_err", testErr/n, "mean over the body's cells")
	p.put("virtual_s", virtualMs/1e3, "sum over the body's cells, simulated time")
	p.put("ckpt_mb", float64(user.ckptBytes)/1e6, "bytes the body checkpointed")
	p.put("trainer.cells", n, "cells per body")
}

var allAlgos = []ps.Algo{ps.SGD, ps.SSGD, ps.ASGD, ps.SAASGD, ps.DCASGD, ps.LCASGD, ps.ADPSGD}

// cellTimes emits wall seconds and host cost per update for each
// algorithm: the mean over the workload's own cells of that algorithm, or
// one probe cell at the workload's shape where it runs none.
func (p *prober) cellTimes() {
	wall := map[ps.Algo]float64{}
	updates := map[ps.Algo]float64{}
	count := map[ps.Algo]float64{}
	total := 0
	for _, c := range p.traced.cells {
		wall[c.Algo] += c.WallS
		updates[c.Algo] += float64(c.Updates)
		count[c.Algo]++
		total += c.Updates
	}
	for _, a := range allAlgos {
		where := "mean of the workload's cells"
		if count[a] == 0 {
			c := p.baseline(a)
			wall[a], updates[a], count[a] = c.WallS, float64(c.Updates), 1
			where = "probe cell at the workload's shape; the workload runs none"
		}
		p.put("ps.cell_s."+string(a), wall[a]/count[a], where)
	}
	for _, a := range []ps.Algo{ps.SSGD, ps.ASGD, ps.ADPSGD, ps.LCASGD} {
		p.put("ps.us_per_update."+string(a), 1e6*wall[a]/updates[a], fmt.Sprintf("%.0f updates per cell", updates[a]/count[a]))
	}
	p.put("ps.updates", float64(total), "server updates over the workload's cells")
	lc := firstOf(p.traced.cells, ps.LCASGD)
	p.put("ps.lc_losspred_ms", lc.LossPredMs, "Result.AvgLossPredMs of the LC-ASGD cell")
	p.put("ps.lc_steppred_ms", lc.StepPredMs, "Result.AvgStepPredMs of the LC-ASGD cell")
}

// asgdProbes runs the workload's ASGD cell three times back to back:
// evaluated once, at the end; as the workload configures it; and so with a
// telemetry recorder. The first two walls differ by a known number of eval
// passes through the program's own evaluator and by nothing else, the last
// two by the recorder. The runs are adjacent because cells issued a minute
// apart differ by more than a recorder costs. It returns the seconds the
// workload's cells spend evaluating.
func (p *prober) asgdProbes() float64 {
	cfg := p.st.cfgFor(ps.ASGD)
	sparse := cfg
	sparse.EvalEvery = cfg.Epochs
	once := p.cell("ps.eval.once", sparse, nil)
	every := p.cell("ps.eval.every", cfg, nil)
	rec := telemetry.NewRecorder()
	recorded := p.cell("telemetry.on", cfg, func(e *ps.Env) { e.Telemetry = rec })

	perPass := (every.WallS - once.WallS) / float64(len(every.Points)-len(once.Points))
	total := 0
	for _, c := range p.traced.cells {
		total += len(c.Points)
	}
	evalS := perPass * float64(total)
	p.put("ps.eval_s", evalS, fmt.Sprintf("%.4g s per pass x %d passes; ASGD cell %.3f s with %d passes, %.3f s with %d",
		perPass, total, every.WallS, len(every.Points), once.WallS, len(once.Points)))
	p.put("ps.eval_share", evalS/p.traced.wallS, fmt.Sprintf("of %.3f s cell by cell", p.traced.wallS))

	p.put("telemetry.overhead_pct", 100*(recorded.WallS/every.WallS-1), fmt.Sprintf("ASGD cell %.3f s recorded vs %.3f s bare", recorded.WallS, every.WallS))
	p.put("telemetry.events", float64(len(rec.Events)), "events of the recorded ASGD cell")
	var buf bytes.Buffer
	exportS := p.tr.do("probe.telemetry.export", func() {
		run := telemetry.TraceRun{Name: "ASGD", Workers: cfg.Workers, Events: rec.Events}
		if err := telemetry.WriteChromeTrace(&buf, []telemetry.TraceRun{run}); err != nil {
			fatal("export trace: %v", err)
		}
	})
	p.put("telemetry.trace_mb", float64(buf.Len())/1e6, "Chrome trace of that cell")
	p.put("telemetry.export_ms", 1e3*exportS, "one WriteChromeTrace call")
	return evalS
}

// backendProbe runs the workload's SSGD and LC-ASGD cells on the backend
// the workload does not use.
func (p *prober) backendProbe() {
	var seq, conc float64
	for _, a := range []ps.Algo{ps.SSGD, ps.LCASGD} {
		own := p.baseline(a)
		cfg := p.st.cfgFor(a)
		ownS, otherS := &seq, &conc
		if cfg.Backend == ps.BackendConcurrent {
			cfg.Backend = ps.BackendSequential
			ownS, otherS = &conc, &seq
		} else {
			cfg.Backend = ps.BackendConcurrent
		}
		other := p.cell("ps.backend."+string(cfg.Backend)+"."+string(a), cfg, nil)
		*ownS += own.WallS
		*otherS += other.WallS
		p.chk.check(cellDigest(own) == cellDigest(other), "%s cell differs bitwise between the sequential and the concurrent backend", a)
	}
	p.put("ps.backend_speedup", seq/conc, fmt.Sprintf("SSGD+LC-ASGD cells: sequential %.3f s / concurrent %.3f s on %d procs", seq, conc, nproc()))
}

// checkpointProbes runs the workload's checkpoint cell with barriers into a
// sink that keeps the bytes, prices the barrier against the same cell
// without barriers, replays the snapshot layer on those bytes and resumes
// from the middle one. It returns the seconds the workload's own body
// spends encoding and writing checkpoints.
func (p *prober) checkpointProbes(opt options, user outcome) float64 {
	cfg := p.st.ckptCfg
	var cks []ps.Checkpoint
	rec := telemetry.NewRecorder()
	full := p.cell("ps.ckpt.on", cfg, func(e *ps.Env) {
		e.Telemetry = rec
		e.CheckpointSink = func(ck ps.Checkpoint) error {
			ck.Data = bytes.Clone(ck.Data)
			cks = append(cks, ck)
			return nil
		}
	})
	off := cfg
	off.CheckpointEvery = 0
	bare := p.cell("ps.ckpt.off", off, func(e *ps.Env) { e.Telemetry = telemetry.NewRecorder() })
	wallK, wall0 := full.WallS, bare.WallS
	// A barrier's drain can run past the next boundary when an epoch holds
	// fewer batches than the fleet has workers, so a short cell may take a
	// single, full checkpoint; the chain below is then that one link.
	if len(cks) == 0 {
		fatal("checkpoint probe cell took no checkpoint")
	}
	stallMs := 1e3 * (wallK - wall0) / float64(len(cks))
	p.put("ps.ckpt_count", float64(len(cks)), fmt.Sprintf("%s probe cell, barrier every %d epochs", cfg.Algo, cfg.CheckpointEvery))
	p.put("ps.ckpt_stall_ms", stallMs, fmt.Sprintf("(%.3f s with barriers - %.3f s without) / count", wallK, wall0))
	meter := func(name string) float64 {
		for _, m := range rec.Meters() {
			if m.Name == name && m.N > 0 {
				return m.Sum / float64(m.N)
			}
		}
		return 0
	}
	encodeMs, writeMs := meter("ckpt_section_encode_wall_ms"), meter("ckpt_container_write_wall_ms")
	p.put("ps.ckpt_encode_ms", encodeMs, "recorder meter, mean per barrier")
	p.put("ps.ckpt_write_ms", writeMs, "recorder meter, mean per barrier")
	p.put("ps.ckpt_full_kb", meter("ckpt_full_bytes")/1024, "recorder meter, mean full container")
	p.put("ps.ckpt_delta_kb", meter("ckpt_delta_bytes")/1024, "recorder meter, mean delta container")

	// The first checkpoint is full and the ones after it chain onto it.
	chain := [][]byte{cks[0].Data}
	for _, ck := range cks[1:] {
		if ck.Full {
			break
		}
		chain = append(chain, ck.Data)
	}
	fullMB := float64(len(cks[0].Data)) / 1e6
	container, err := snapshot.DecodeContainer(cks[0].Data)
	if err != nil {
		fatal("decode checkpoint: %v", err)
	}
	dec := p.measure("snapshot.decode", 1, func() {
		if _, err := snapshot.DecodeContainer(cks[0].Data); err != nil {
			fatal("decode checkpoint: %v", err)
		}
	})
	p.put("snapshot.decode_mb_s", fullMB/dec.P50, fmt.Sprintf("%.3f MB full container, p50 of %d", fullMB, dec.N))
	enc := p.measure("snapshot.encode", 1, func() {
		if _, err := snapshot.EncodeContainer(container); err != nil {
			fatal("encode checkpoint: %v", err)
		}
	})
	p.put("snapshot.encode_mb_s", fullMB/enc.P50, fmt.Sprintf("%.3f MB full container, p50 of %d", fullMB, enc.N))
	p.timed("snapshot.materialize_ms", 1e-3, func() {
		if _, err := snapshot.Materialize(chain...); err != nil {
			fatal("materialize chain: %v", err)
		}
	})

	dir, err := os.MkdirTemp(opt.tmpDir(), "probe-store-")
	if err != nil {
		fatal("%v", err)
	}
	defer os.RemoveAll(dir)
	store, err := snapshot.OpenStore(dir)
	if err != nil {
		fatal("%v", err)
	}
	rd, err := store.Run(ps.ConfigKey(cfg))
	if err != nil {
		fatal("%v", err)
	}
	rd.SetKeep(len(cks))
	meta := func(ck ps.Checkpoint) snapshot.CkptMeta {
		return snapshot.CkptMeta{Epoch: ck.Epoch, Batches: ck.Batches, Updates: ck.Updates,
			VirtualMs: ck.VirtualMs, Full: ck.Full, BaseEpoch: ck.BaseEpoch}
	}
	p.timed("snapshot.save_ms", 1e-3, func() {
		if err := rd.SaveCheckpoint(cks[0].Data, meta(cks[0])); err != nil {
			fatal("save checkpoint: %v", err)
		}
	})
	for _, ck := range cks[1:len(chain)] {
		if err := rd.SaveCheckpoint(ck.Data, meta(ck)); err != nil {
			fatal("save checkpoint: %v", err)
		}
	}
	p.timed("snapshot.load_chain_ms", 1e-3, func() {
		if _, _, err := rd.LoadChain(cks[len(chain)-1].Epoch); err != nil {
			fatal("load chain: %v", err)
		}
	})

	// Resume from the middle barrier: its chain must materialise and the
	// resumed run must finish bitwise equal to the uninterrupted one.
	mid := len(cks) / 2
	base := mid
	for !cks[base].Full {
		base--
	}
	var links [][]byte
	for _, ck := range cks[base : mid+1] {
		links = append(links, ck.Data)
	}
	state, err := snapshot.Materialize(links...)
	p.chk.check(err == nil, "delta chain up to barrier %d does not materialise: %v", mid+1, err)
	env := p.st.env
	env.Cfg = cfg
	env.Telemetry = telemetry.NewRecorder() // the checkpoint carries recorder state
	var resumed ps.Result
	resumeS := p.tr.do("probe.ps.resume", func() { resumed, err = ps.Resume(env, state) })
	p.chk.check(err == nil && cellDigest(summarize1("", false, 0, 0, resumed)) == cellDigest(full),
		"ps.Resume from barrier %d of %d does not finish equal to the uninterrupted run (err %v)", mid+1, len(cks), err)
	remaining := 1 - float64(cks[mid].Epoch)/float64(cfg.Epochs)
	p.put("ps.resume_overhead_ms", 1e3*(resumeS-remaining*wallK),
		fmt.Sprintf("ps.Resume %.3f s - %.2f remaining x %.3f s uninterrupted", resumeS, remaining, wallK))
	if user.resumeS > 0 {
		sweepS := user.wallS - user.resumeS
		p.put("resume_s", user.resumeS, "Resume=true re-run of the body's sweep")
		p.put("trainer.resume_saved_share", 1-user.resumeS/sweepS, fmt.Sprintf("1 - resume %.3f s / sweep %.3f s", user.resumeS, sweepS))
	} else {
		p.put("resume_s", resumeS, "ps.Resume of the checkpoint cell; the body resumes nothing")
		p.put("trainer.resume_saved_share", 1-resumeS/wallK, "checkpoint cell: 1 - ps.Resume / uninterrupted")
	}
	// The program's own meters, not the stall: on small models the stall is
	// a difference of two walls below the host's noise.
	return (encodeMs + writeMs) / 1e3 * float64(user.barriers)
}

// schedulerMetrics compares the workload's cells issued one at a time with
// the body, which issues them the way a user does: robust_store at
// Jobs=nproc, the others one at a time, where the ratio reads 1 plus the
// tracer's own cost. It also renders the body's results as a report table.
func (p *prober) schedulerMetrics(user outcome) {
	one, all := p.traced.wallS, user.wallS
	p.put("trainer.jobs_speedup", one/all, fmt.Sprintf("cell by cell %.3f s / the body %.3f s", one, all))
	p.put("trainer.sched_util", one/all/float64(nproc()), fmt.Sprintf("speedup / %d procs", nproc()))
	p.timed("report.render_ms", 1e-3, func() {
		tb := report.NewTable("bench", "cell", "test err%", "mean stale", "updates", "vsec")
		for _, c := range user.cells {
			tb.AddRow(c.Name, report.Pct(c.FinalTestErr), fmt.Sprintf("%.2f", c.MeanStaleness),
				fmt.Sprint(c.Updates), fmt.Sprintf("%.1f", c.VirtualMs/1000))
		}
		_ = tb.String()
	})
}

// kernelProbes times the tensor kernels at the model's largest convolution
// and the workload's train batch: im2col of one image, then the three
// matmul forms a convolution's forward and backward passes use.
func (p *prober) kernelProbes() {
	g, outC := p.st.geom, p.st.outC
	rows := g.ColRows() * p.st.cfgFor(ps.ASGD).BatchSize
	k := g.ColCols()
	r := rng.New(p.seed)
	fill := func(t *tensor.Tensor) *tensor.Tensor {
		for i := range t.Data {
			t.Data[i] = r.Float64() - 0.5
		}
		return t
	}
	col, w, out := fill(tensor.New(rows, k)), fill(tensor.New(k, outC)), fill(tensor.New(rows, outC))
	dw, dcol := tensor.New(k, outC), tensor.New(rows, k)
	mm := p.timed("tensor.matmul_us", 1e-6, func() { tensor.MatMulInto(out, col, w) })
	p.timed("tensor.matmul_transa_us", 1e-6, func() { tensor.MatMulTransAInto(dw, col, out) })
	p.timed("tensor.matmul_transb_us", 1e-6, func() { tensor.MatMulTransBInto(dcol, out, w) })
	flops := 2 * float64(rows) * float64(k) * float64(outC)
	p.put("tensor.matmul_gflops", flops/(mm.P50*1e-6)/1e9, fmt.Sprintf("[%dx%d]x[%dx%d], 2mnk flops", rows, k, k, outC))

	img := fill(tensor.New(g.InC * g.InH * g.InW)).Data
	cols := make([]float64, g.ColRows()*g.ColCols())
	p.timed("tensor.im2col_us", 1e-6, func() { tensor.Im2Col(cols, img, g) })
	p.timed("tensor.col2im_us", 1e-6, func() { tensor.Col2Im(img, cols, g) })
}

// networkProbes times the workload's model: build, one training forward
// and backward at the train batch, one inference at the eval batch, and the
// data and topology layers that feed it. It returns forward+backward ms.
func (p *prober) networkProbes() float64 {
	env, cfg := p.st.env, p.st.cfgFor(ps.ASGD)
	var net *nn.Sequential
	p.timed("model.build_ms", 1e-3, func() { net = env.Build(rng.New(p.seed)) })
	p.put("model.params", float64(nn.ParamCount(net.Params())), "flat parameter count")

	it := data.NewBatchIter(env.Train, cfg.BatchSize, rng.New(p.seed))
	x, y := tensor.New(cfg.BatchSize, env.Train.Features()), make([]int, cfg.BatchSize)
	p.timed("data.batch_us", 1e-6, func() { it.NextInto(x, y) })

	var ce nn.SoftmaxCrossEntropy
	// Room for every sample up front, so the loop's mallocs are the
	// network's alone.
	fwd, bwd := make([]float64, 0, 1<<16), make([]float64, 0, 1<<16)
	step := func() {
		t0 := time.Now()
		ce.Forward(net.Forward(x, true), y)
		t1 := time.Now()
		net.ZeroGrad()
		net.Backward(ce.Backward(1))
		fwd = append(fwd, 1e3*t1.Sub(t0).Seconds())
		bwd = append(bwd, 1e3*time.Since(t1).Seconds())
	}
	step()
	fwd, bwd = fwd[:0], bwd[:0]
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for start := time.Now(); len(fwd) < 21 || (time.Since(start) < 2*probeBudget && len(fwd) < cap(fwd)); {
		step()
	}
	runtime.ReadMemStats(&m1)
	f, b := summarize(fwd), summarize(bwd)
	p.put("nn.forward_ms", f.P50, fmt.Sprintf("batch %d, p50 of %d, p%.0f %.4g", cfg.BatchSize, f.N, f.TailAt, f.Tail))
	p.put("nn.backward_ms", b.P50, fmt.Sprintf("batch %d, p50 of %d, p%.0f %.4g", cfg.BatchSize, b.N, b.TailAt, b.Tail))
	p.put("nn.mallocs_per_iter", float64(m1.Mallocs-m0.Mallocs)/float64(f.N), "MemStats.Mallocs over the timed forward+backward loop")

	idx := make([]int, evalBatchOf(cfg))
	for i := range idx {
		idx[i] = i % env.Test.Len()
	}
	ex, _ := env.Test.Batch(idx)
	p.timed("nn.infer_ms", 1e-3, func() { net.Forward(ex, false) })

	p.timed("data.generate_ms", 1e-3, func() { p.st.generate() })
	p.timed("topology.build_ms", 1e-3, func() {
		topology.Ring(p.st.workers)
		topology.Gossip(p.st.workers, rng.New(p.seed))
	})
	return f.P50 + b.P50
}

// predictorProbes times LC-ASGD's two LSTM predictors at the workload's
// hidden sizes and fleet size, below and at the core package's API.
func (p *prober) predictorProbes() {
	cfg := p.st.cfgFor(ps.LCASGD)
	m, k := cfg.Workers, max(cfg.Workers-1, 1)
	net := lstm.NewNetwork(1, []int{cfg.LossPredHidden, cfg.LossPredHidden}, rng.New(p.seed))
	net.LR, net.Window = 0.2, 12
	in := []float64{0.7}
	for i := 0; i < net.Window; i++ {
		net.TrainStep(in, 0.7)
	}
	p.timed("lstm.train_step_us", 1e-6, func() { net.TrainStep(in, 0.69) })
	fb := make([]float64, 1)
	p.timed("lstm.predict_ahead_us", 1e-6, func() {
		net.PredictAhead(in, k, func(o float64) []float64 { fb[0] = o; return fb })
	})

	lp := core.NewLossPredictorSized(cfg.LossPredHidden, rng.New(p.seed))
	for i := 0; i < 16; i++ {
		lp.Observe(0.7)
	}
	p.timed("core.losspred_observe_us", 1e-6, func() { lp.Observe(0.69) })
	p.timed("core.losspred_predict_us", 1e-6, func() { lp.PredictDelay(0.69, k) })
	sp := core.NewStepPredictorSized(m, cfg.StepPredHidden, rng.New(p.seed))
	w := 0
	p.timed("core.steppred_us", 1e-6, func() {
		sp.ObserveAndPredict(w%m, m-1, cfg.Cost.MeanComm, cfg.Cost.MeanComp)
		w++
	})
}

// clockNsPerEvent times the discrete-event clock at a steady queue depth:
// every event that fires schedules its successor.
func clockNsPerEvent(depth int) float64 {
	clk := simclock.New()
	r := rng.New(1)
	var fire func()
	fire = func() { clk.ScheduleAfter(1+r.Float64(), fire) }
	for i := 0; i < depth; i++ {
		fire()
	}
	const batch = 2000
	t := timeCalls(probeBudget, 1e-9*batch, func() {
		for i := 0; i < batch; i++ {
			clk.Step()
		}
	})
	return t.P50
}
