// Command lcexp regenerates the figures and tables of the LC-ASGD paper's
// evaluation section on the simulated cluster. Each experiment id maps to
// one paper artifact (see DESIGN.md's experiment index):
//
//	lcexp -exp fig2              DC-ASGD degradation with worker count
//	lcexp -exp fig3 -workers 8   error vs epoch, all five algorithms
//	lcexp -exp fig4 -workers 8   error vs virtual wall-clock
//	lcexp -exp fig5 -workers 8   ImageNet-scale error vs epoch
//	lcexp -exp fig6 -workers 8   ImageNet-scale error vs wall-clock
//	lcexp -exp fig7              loss-predictor trace
//	lcexp -exp fig8              step-predictor trace
//	lcexp -exp tab1              final-error grid, BN vs Async-BN
//	lcexp -exp tab2              predictor overhead, CIFAR-scale
//	lcexp -exp tab3              predictor overhead, ImageNet-scale
//	lcexp -exp robust            algorithms × cluster scenarios (beyond the paper)
//	lcexp -exp all               everything above in sequence
//
// The -exp list is validated up front: an unknown id aborts the run before
// any experiment starts, instead of failing halfway through.
//
// -full switches from the quick CPU-budget profiles to the paper-scale
// ones; -seeds averages headline tables (tab1 and robust) over several
// seeds; -csv emits the series as CSV instead of charts; -jobs runs that
// many experiment cells concurrently per sweep (default GOMAXPROCS;
// byte-identical output at any value); -parallel fans worker compute
// within each cell across goroutines (bit-identical results, faster
// wall-clock on multi-core — it makes the -jobs default 1; an explicit
// -jobs N beside it runs N such cells at once); -scenario replays a canned
// cluster-event
// timeline (congestion windows, crashes/recoveries, elastic resizes,
// network partitions) under every experiment; -cpuprofile/-memprofile
// write pprof profiles of the whole run so perf work can attach evidence
// (go tool pprof lcexp cpu.out).
//
// Persistence: -ckpt-dir opens an on-disk experiment store; every run
// persists its config, a checkpoint at each -ckpt-every epoch barrier, its
// learning curve and its final result, content-addressed by configuration.
// A killed invocation re-run with -resume skips completed runs and resumes
// interrupted ones from their last checkpoint, bit-identically — which is
// what makes the paper-scale `-full -exp robust` sweep feasible on
// preemptible runners. -ckpt-keep retains the newest K checkpoints per run
// so resume can fall back past a corrupted latest one. -ckpt-full-every
// controls the delta cadence: every K-th checkpoint is a self-contained
// full snapshot, the ones between encode only the sections that changed
// since the previous barrier and chain onto it (resume materializes the
// chain; a broken link falls back to the newest intact one). -recover-opt adds
// robustness-table variant rows where a crash-recovered worker restores its
// state from the last checkpoint instead of re-pulling fresh (the
// lost-momentum study). -render re-renders every figure and table from the
// store's persisted results without recomputing anything, and names the
// missing cell when the sweep never finished it.
//
// Decentralized runs: -topology picks the gossip graph AD-PSGD cells
// communicate on (ring, complete, star, seeded random gossip, or an
// explicit edge list); parameter-server algorithms ignore it.
//
// Telemetry: -trace-out writes a Chrome trace-event timeline of every cell
// the invocation computed — one process group per cell, one lane per worker
// plus a run lane, loadable in Perfetto or chrome://tracing — and
// -metrics-out dumps each cell's metrics registry (staleness and barrier
// histograms, per-worker commit/drop/gossip counts, gauge series sampled at
// eval boundaries, wall-clock checkpoint cost meters) as JSON, or CSV when
// the path ends in .csv. Both are deterministic renderings of the simulated
// clock: identical bytes at any -jobs value and with or without -parallel
// (only the "measured" wall-clock section varies across hosts). Incompatible
// with -render, which computes nothing.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"sync"
	"time"

	"lcasgd/internal/ps"
	"lcasgd/internal/scenario"
	"lcasgd/internal/snapshot"
	"lcasgd/internal/topology"
	"lcasgd/internal/trainer"
)

// allExperiments is the canonical id order, also the expansion of -exp all.
var allExperiments = []string{
	"fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
	"tab1", "tab2", "tab3", "robust",
}

// resolveJobs turns the -jobs flag into the sweep pool size. 0 asks for
// the default: every core — unless -parallel hands the cores to the workers
// within each cell, which leaves one cell at a time. An explicit pool beside
// -parallel is cells × lanes.
func resolveJobs(jobs int, parallel bool) (int, error) {
	switch {
	case jobs < 0:
		return 0, errors.New("-jobs must be non-negative")
	case jobs == 0 && parallel:
		return 1, nil
	case jobs == 0:
		return runtime.GOMAXPROCS(0), nil
	}
	return jobs, nil
}

// flagValues is what checkFlags judges and apply wires into the profiles:
// the flags some rule constrains.
type flagValues struct {
	scenario, topology, traceOut, metricsOut, ckptDir string
	workers, jobs, seeds                              int
	ckptKeep, ckptEvery, ckptFullEvery                int
	parallel, render, resume                          bool
}

// checkFlags returns the first rule the command line breaks, or nil. The
// scenario and topology errors carry their valid vocabularies.
func checkFlags(f flagValues) error {
	_, scErr := scenario.Lookup(f.scenario)
	// An explicit edge-list topology names concrete ranks, so every fleet it
	// is applied to must span them: a smaller fleet would silently drop the
	// out-of-range edges (and can leave decentralized cells gossiping on a
	// disconnected remnant), surfacing only as a confusing mid-sweep result.
	// Reject the pairing against every fleet size this invocation will run.
	span, topoErr := topology.SpecMinWorkers(f.topology)
	smallest := f.workers
	if smallest == 0 {
		smallest = slices.Min(trainer.WorkerCounts)
	}
	_, jobsErr := resolveJobs(f.jobs, f.parallel)
	switch {
	case scErr != nil:
		return scErr
	case topoErr != nil:
		return topoErr
	case f.workers < 0:
		return errors.New("-workers must be non-negative (0 = the full 4,8,16 grid)")
	case smallest < span:
		return fmt.Errorf("-topology %q names ranks up to %d, but the sweep runs fleets of %d workers; pass -workers %d or larger",
			f.topology, span-1, smallest, span)
	case (f.traceOut != "" || f.metricsOut != "") && f.render:
		// Render cells load persisted results without running the engine, so
		// there is nothing to trace; failing beats writing an empty artifact.
		return errors.New("-trace-out/-metrics-out cannot be combined with -render: rendered cells compute nothing, so there is no telemetry to record")
	case jobsErr != nil:
		return jobsErr
	case f.resume && f.ckptDir == "":
		return errors.New("-resume requires -ckpt-dir (nowhere to resume from)")
	case f.render && f.ckptDir == "":
		return errors.New("-render requires -ckpt-dir (nowhere to load results from)")
	case f.ckptKeep < 1:
		return errors.New("-ckpt-keep must be at least 1")
	case f.ckptEvery < 0:
		// Rejected even without -ckpt-dir: a negative cadence is never
		// meaningful, and catching it here beats a ps panic mid-sweep.
		return errors.New("-ckpt-every cannot be negative")
	case f.ckptEvery == 0 && f.ckptDir != "":
		return errors.New("-ckpt-every must be positive with -ckpt-dir")
	case f.ckptFullEvery < 1:
		return errors.New("-ckpt-full-every must be at least 1")
	case f.seeds < 1:
		// Zero seeds would run no cell and average nothing: a table of NaN.
		return errors.New("-seeds must be at least 1")
	}
	return nil
}

// apply wires the command line into a profile; every profile gets the same
// wiring. f must have passed checkFlags.
func (f flagValues) apply(p *trainer.Profile, store *snapshot.Store) {
	if f.parallel {
		p.Backend = ps.BackendConcurrent
	}
	p.Jobs, _ = resolveJobs(f.jobs, f.parallel)
	if sc, _ := scenario.Lookup(f.scenario); sc.Name != "none" {
		p.Scenario = &sc
	}
	p.Topology = f.topology
	if store != nil {
		p.Store, p.CkptEvery, p.CkptKeep, p.CkptFullEvery = store, f.ckptEvery, f.ckptKeep, f.ckptFullEvery
		p.Resume, p.Render = f.resume, f.render
	}
}

func main() { os.Exit(lcexp(os.Args[1:])) }

// lcexp runs the command line args and returns the exit status. It owns the
// profilers' deferred stops, so every exit after they start — a failure
// included — leaves complete profiles behind.
func lcexp(args []string) int {
	fs := flag.NewFlagSet("lcexp", flag.ExitOnError)
	var (
		exp      = fs.String("exp", "all", "comma-separated experiment ids: fig2..fig8, tab1..tab3, robust, all")
		workers  = fs.Int("workers", 0, "restrict figure panels to one worker count (0 = all of 4,8,16)")
		full     = fs.Bool("full", false, "use the paper-scale profiles (slow) instead of quick ones")
		seeds    = fs.Int("seeds", 1, "number of seeds to average in tab1 and robust (mean ± spread rows)")
		seed     = fs.Uint64("seed", 7, "base random seed")
		csv      = fs.Bool("csv", false, "emit figure series as CSV tables instead of ASCII charts")
		parallel = fs.Bool("parallel", false, "run worker compute on the concurrent backend (bit-identical, multi-core)")
		jobs     = fs.Int("jobs", 0, "experiment cells to run concurrently in sweeps (0 = GOMAXPROCS, or 1 with -parallel; 1 = sequential; byte-identical output at any value)")
		scn      = fs.String("scenario", "none",
			fmt.Sprintf("cluster-event timeline for every run: %s", strings.Join(scenario.Names(), ", ")))
		topo = fs.String("topology", "",
			fmt.Sprintf("gossip graph for decentralized (AD-PSGD) cells: %s (empty = ring)", strings.Join(topology.Names(), ", ")))
		verbose       = fs.Bool("v", false, "report sweep progress to stderr (cells done/total, elapsed)")
		cpuprofile    = fs.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
		memprofile    = fs.String("memprofile", "", "write a heap profile to this file at exit")
		ckptDir       = fs.String("ckpt-dir", "", "experiment store directory: every run persists its config, checkpoints and result there")
		ckptEvery     = fs.Int("ckpt-every", 1, "checkpoint barrier cadence in epochs for persisted runs (with -ckpt-dir)")
		ckptKeep      = fs.Int("ckpt-keep", 1, "checkpoints to retain per persisted run; keeping more lets -resume fall back past a corrupted latest one")
		ckptFullEvery = fs.Int("ckpt-full-every", 8, "every K-th persisted checkpoint is a self-contained full snapshot; the ones between are deltas chained onto it (1 = every checkpoint full)")
		traceOut      = fs.String("trace-out", "", "write a Chrome trace-event timeline (Perfetto-loadable) of every computed cell to this file")
		metricsOut    = fs.String("metrics-out", "", "write every computed cell's metrics registry to this file (.csv for CSV, JSON otherwise)")
		resume        = fs.Bool("resume", false, "with -ckpt-dir: skip completed runs, resume interrupted ones from their last checkpoint")
		render        = fs.Bool("render", false, "with -ckpt-dir: re-render figures and tables from persisted results without recomputing")
		recoverOpt    = fs.Bool("recover-opt", false, "robust: add variant rows where recovered workers restore the last checkpoint instead of pulling fresh state")
	)
	fs.Parse(args)

	ids := expandExperiments(*exp)

	// Checked before the profilers start: a bad value leaves no profile file
	// behind at all.
	flags := flagValues{
		scenario: *scn, topology: *topo, traceOut: *traceOut, metricsOut: *metricsOut, ckptDir: *ckptDir,
		workers: *workers, jobs: *jobs, seeds: *seeds,
		ckptKeep: *ckptKeep, ckptEvery: *ckptEvery, ckptFullEvery: *ckptFullEvery,
		parallel: *parallel, render: *render, resume: *resume,
	}
	if err := checkFlags(flags); err != nil {
		fmt.Fprintf(os.Stderr, "lcexp: %v\n", err)
		return 2
	}
	var store *snapshot.Store
	if *ckptDir != "" {
		var err error
		if store, err = snapshot.OpenStore(*ckptDir); err != nil {
			fmt.Fprintf(os.Stderr, "lcexp: %v\n", err)
			return 2
		}
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "lcexp: -cpuprofile: %v\n", err)
			return 2
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "lcexp: -cpuprofile: %v\n", err)
			return 2
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		path := *memprofile
		defer func() {
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintf(os.Stderr, "lcexp: -memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // flush dead objects so the profile shows live state
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "lcexp: -memprofile: %v\n", err)
			}
		}()
	}

	cifar, imagenet := trainer.QuickCIFAR(), trainer.QuickImageNet()
	if *full {
		cifar, imagenet = trainer.FullCIFAR(), trainer.FullImageNet()
	}
	var progress func(done, total int, elapsed time.Duration, key string)
	if *verbose {
		// Progress goes to stderr so stdout artifacts (tables, charts, CSV)
		// stay byte-identical with and without -v. The ETA is the naive
		// linear projection elapsed/done × remaining — cells vary in cost, so
		// it converges as the sweep progresses rather than starting accurate.
		progress = func(done, total int, elapsed time.Duration, key string) {
			line := fmt.Sprintf("lcexp: cells %d/%d, elapsed %s",
				done, total, elapsed.Round(100*time.Millisecond))
			if done > 0 && done < total {
				eta := time.Duration(float64(elapsed) / float64(done) * float64(total-done))
				line += fmt.Sprintf(", eta %s", eta.Round(100*time.Millisecond))
			}
			if len(key) >= 12 {
				line += fmt.Sprintf(", cell %.12s…", key)
			}
			fmt.Fprintln(os.Stderr, line)
		}
	}
	var tel *trainer.Telemetry
	if *traceOut != "" || *metricsOut != "" {
		tel = trainer.NewTelemetry()
	}
	for _, p := range []*trainer.Profile{&cifar, &imagenet} {
		flags.apply(p, store)
		p.Progress, p.Telemetry = progress, tel
	}
	ms := trainer.WorkerCounts
	if *workers != 0 {
		ms = []int{*workers}
	}
	var seedList []uint64
	for i := 0; i < *seeds; i++ {
		seedList = append(seedList, *seed+uint64(i))
	}

	// Figures 3/4 and 5/6 plot the same panels against epochs and against
	// virtual time, and Figures 7/8 two traces of one run: each is computed
	// once per invocation, whichever figure asks first.
	panels := map[string]trainer.CurveSet{}
	panel := func(fig func(trainer.Profile, int, uint64) trainer.CurveSet, p trainer.Profile, m int) trainer.CurveSet {
		key := fmt.Sprintf("%s M=%d", p.Name, m)
		cs, ok := panels[key]
		if !ok {
			cs = fig(p, m, *seed)
			panels[key] = cs
		}
		return cs
	}
	var traced struct {
		lossChart, stepChart string
		res                  ps.Result
	}
	trace := sync.OnceFunc(func() {
		traced.lossChart, traced.stepChart, traced.res = trainer.PredictorTraces(imagenet, *seed)
	})

	run := func(id string) error {
		switch id {
		case "fig2":
			fmt.Println("== Figure 2: DC-ASGD test error vs epoch, ResNet-18-scale / CIFAR-10-scale ==")
			cs := trainer.Fig2(cifar, *seed)
			emitCurves(cs, *csv, true)
		case "fig3", "fig4":
			byTime := id == "fig4"
			fmt.Printf("== Figure %s: all algorithms on %s, Async-BN ==\n", id[3:], cifar.Name)
			for _, m := range ms {
				emitCurves(panel(trainer.Fig3Panel, cifar, m), *csv, !byTime)
			}
		case "fig5", "fig6":
			byTime := id == "fig6"
			fmt.Printf("== Figure %s: distributed algorithms on %s, Async-BN ==\n", id[3:], imagenet.Name)
			for _, m := range ms {
				emitCurves(panel(trainer.Fig5Panel, imagenet, m), *csv, !byTime)
			}
		case "fig7", "fig8":
			trace()
			res := traced.res
			if id == "fig7" {
				fmt.Println(traced.lossChart)
				var actuals []float64
				for _, tp := range res.LossTrace {
					actuals = append(actuals, tp.Actual)
				}
				fmt.Printf("loss-predictor tail MAE: %.4f (mean loss level %.3f)\n",
					trainer.TraceMAE(res.LossTrace), meanActual(actuals))
			} else {
				fmt.Println(traced.stepChart)
				fmt.Printf("step-predictor tail MAE: %.2f steps (M=16)\n", trainer.TraceMAE(res.StepTrace))
			}
		case "tab1":
			fmt.Println("== Table 1: final test error and degradation, BN vs Async-BN ==")
			rows, b1, b2 := trainer.Table1(cifar, true, seedList)
			fmt.Println(trainer.RenderTable1(cifar, rows, b1, b2))
			rows, b1, b2 = trainer.Table1(imagenet, false, seedList)
			fmt.Println(trainer.RenderTable1(imagenet, rows, b1, b2))
		case "tab2":
			fmt.Println("== Table 2: predictor overhead per iteration (CIFAR-scale) ==")
			fmt.Println(trainer.RenderOverhead(cifar, trainer.OverheadTable(cifar, *seed)))
		case "tab3":
			fmt.Println("== Table 3: predictor overhead per iteration (ImageNet-scale) ==")
			fmt.Println(trainer.RenderOverhead(imagenet, trainer.OverheadTable(imagenet, *seed)))
		case "robust":
			m := 8
			if *workers != 0 {
				m = *workers
			}
			fmt.Printf("== Robustness: algorithms × cluster scenarios (%s, M=%d) ==\n", cifar.Name, m)
			opts := trainer.RobustnessOpts{Seeds: *seeds, RecoverOpt: *recoverOpt}
			rows := trainer.Robustness(cifar, m, *seed, scenario.Canned(), opts)
			tb := trainer.RenderRobustness(cifar, m, rows)
			if store != nil {
				if err := store.SaveTable("robustness", rows, tb.String()); err != nil {
					return err
				}
			}
			if *csv {
				fmt.Println(tb.CSV())
			} else {
				fmt.Println(tb)
			}
		}
		return nil
	}

	for _, id := range ids {
		if err := runExperiment(run, id); err != nil {
			fmt.Fprintf(os.Stderr, "lcexp: %v\n", err)
			return 1
		}
	}

	if tel != nil {
		// Written once at the end, atomically: the artifacts cover every cell
		// the whole invocation computed (cells loaded from the store under
		// -resume ran no engine and are absent).
		if *traceOut != "" {
			if err := tel.WriteTrace(*traceOut); err != nil {
				fmt.Fprintf(os.Stderr, "lcexp: -trace-out: %v\n", err)
				return 1
			}
		}
		if *metricsOut != "" {
			if err := tel.WriteMetrics(*metricsOut); err != nil {
				fmt.Fprintf(os.Stderr, "lcexp: -metrics-out: %v\n", err)
				return 1
			}
		}
		fmt.Fprintf(os.Stderr, "lcexp: telemetry recorded for %d cells\n", tel.Cells())
	}
	return 0
}

// runExperiment runs one experiment id, turning a render-mode miss into a
// clean diagnostic instead of a stack trace: the error names exactly which
// cell the store lacks. Other panics propagate unchanged.
func runExperiment(run func(string) error, id string) (err error) {
	defer func() {
		if rec := recover(); rec != nil {
			miss, ok := rec.(*trainer.RenderMissingError)
			if !ok {
				panic(rec)
			}
			err = miss
		}
	}()
	return run(id)
}

// expandExperiments parses and validates the -exp list before anything
// runs: an unknown id must fail fast, not after half the experiments have
// already burned CPU. "all" expands to the canonical order.
func expandExperiments(exp string) []string {
	known := map[string]bool{}
	for _, id := range allExperiments {
		known[id] = true
	}
	var ids []string
	var unknown []string
	for _, id := range strings.Split(exp, ",") {
		id = strings.TrimSpace(id)
		switch {
		case id == "all":
			ids = append(ids, allExperiments...)
		case known[id]:
			ids = append(ids, id)
		default:
			unknown = append(unknown, fmt.Sprintf("%q", id))
		}
	}
	if len(unknown) > 0 {
		fmt.Fprintf(os.Stderr, "lcexp: unknown experiment %s (valid: %s, all)\n",
			strings.Join(unknown, ", "), strings.Join(allExperiments, ", "))
		os.Exit(2)
	}
	if len(ids) == 0 {
		fmt.Fprintln(os.Stderr, "lcexp: empty experiment list")
		os.Exit(2)
	}
	return ids
}

func emitCurves(cs trainer.CurveSet, csv, byEpoch bool) {
	if csv {
		fmt.Println(cs.SeriesTable().CSV())
		return
	}
	if byEpoch {
		fmt.Println(cs.ChartEpochs(72, 16))
	} else {
		fmt.Println(cs.ChartTime(72, 16))
	}
	for _, a := range cs.Order {
		r := cs.Results[a]
		fmt.Printf("  %-10s final train %s%%  test %s%%  virtual %.1fs  staleness %.1f\n",
			a, pct(r.FinalTrainErr), pct(r.FinalTestErr), r.VirtualMs/1000, r.MeanStaleness)
	}
	fmt.Println()
}

func pct(v float64) string { return fmt.Sprintf("%.2f", v*100) }

func meanActual(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}
