package main

// This file is the harness's side of BENCHMARK.json: the workloads and the
// metrics it emits, by the names later issues cite. bench_test.go checks
// the two lists stay identical.

// workloadDef names one workload and says why the suite has it.
type workloadDef struct {
	Name string
	Why  string
}

var workloadDefs = []workloadDef{
	{"fig3_seq", "Fig3Panel on the quick CIFAR profile, M=4, Jobs=1, sequential backend, 8 epochs x 800 samples: single-threaded and compute-bound, so tensor, nn and the eval pass do the work"},
	{"fig5_par", "Fig5Panel on the quick ImageNet profile, M=8, concurrent backend, 5 epochs x 1080 samples: the same kernels driven from worker lanes and eval shards; a lane or goroutine change moves it, not fig3_seq"},
	{"robust_store", "Robustness sweep (7 algorithms x none+randomized churn) at M=8, Jobs=nproc into a store, 4 epochs, killed after epoch 2 and resumed: scheduler, churn, snapshot writes and chain-materialising reads"},
	{"fleet_scale", "direct ps.Run on a near-empty MLP at M=4096 (LC-ASGD M=1024) with churn and 8 delta-checkpoint barriers: event loop, fleet bookkeeping, checkpoint encode and predictor rollout; kernels do nothing"},
}

// metricDef is one emitted metric. Bound is set on end-to-end metrics only:
// the share of the parent's median by which the metric may worsen. Which
// end-to-end metric each per-layer metric should move, and on which
// workload, is the table in README.md.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// The reference box is a shared 2-vCPU VM whose speed drifts by tens of
// percent for minutes at a time: ten differently-seeded runs spread by 1-6 %
// of their median in a quiet spell and by 17 % across a slow one. The bounds
// are the contract's ceiling, not the 10 % the issue asked for (see README,
// "Bounds").
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "train_samples_per_s", Unit: "samples/s", Better: "higher", Bound: 0.25},
}

var perLayer = []metricDef{
	// Moved out of the end-to-end list because the contract wants every
	// end-to-end metric non-zero, steady across seeds and present on every
	// workload; they keep the names the issue gave them.
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "ckpt_mb", Unit: "MB", Better: "lower"},
	{Name: "resume_s", Unit: "s", Better: "lower"},
	{Name: "final_test_err", Unit: "fraction", Better: "lower"},
	{Name: "virtual_s", Unit: "s", Better: "lower"},

	{Name: "tensor.matmul_us", Unit: "us", Better: "lower"},
	{Name: "tensor.matmul_transa_us", Unit: "us", Better: "lower"},
	{Name: "tensor.matmul_transb_us", Unit: "us", Better: "lower"},
	{Name: "tensor.im2col_us", Unit: "us", Better: "lower"},
	{Name: "tensor.col2im_us", Unit: "us", Better: "lower"},
	{Name: "tensor.matmul_gflops", Unit: "GFLOP/s", Better: "higher"},

	{Name: "nn.forward_ms", Unit: "ms", Better: "lower"},
	{Name: "nn.backward_ms", Unit: "ms", Better: "lower"},
	{Name: "nn.infer_ms", Unit: "ms", Better: "lower"},
	{Name: "nn.mallocs_per_iter", Unit: "count", Better: "lower"},

	{Name: "model.build_ms", Unit: "ms", Better: "lower"},
	{Name: "model.params", Unit: "count", Better: "lower"},
	{Name: "data.generate_ms", Unit: "ms", Better: "lower"},
	{Name: "data.batch_us", Unit: "us", Better: "lower"},
	{Name: "topology.build_ms", Unit: "ms", Better: "lower"},

	{Name: "lstm.train_step_us", Unit: "us", Better: "lower"},
	{Name: "lstm.predict_ahead_us", Unit: "us", Better: "lower"},
	{Name: "core.losspred_observe_us", Unit: "us", Better: "lower"},
	{Name: "core.losspred_predict_us", Unit: "us", Better: "lower"},
	{Name: "core.steppred_us", Unit: "us", Better: "lower"},
	{Name: "ps.lc_losspred_ms", Unit: "ms", Better: "lower"},
	{Name: "ps.lc_steppred_ms", Unit: "ms", Better: "lower"},

	{Name: "ps.cell_s.SGD", Unit: "s", Better: "lower"},
	{Name: "ps.cell_s.SSGD", Unit: "s", Better: "lower"},
	{Name: "ps.cell_s.ASGD", Unit: "s", Better: "lower"},
	{Name: "ps.cell_s.SA-ASGD", Unit: "s", Better: "lower"},
	{Name: "ps.cell_s.DC-ASGD", Unit: "s", Better: "lower"},
	{Name: "ps.cell_s.LC-ASGD", Unit: "s", Better: "lower"},
	{Name: "ps.cell_s.AD-PSGD", Unit: "s", Better: "lower"},

	{Name: "ps.us_per_update.SSGD", Unit: "us", Better: "lower"},
	{Name: "ps.us_per_update.ASGD", Unit: "us", Better: "lower"},
	{Name: "ps.us_per_update.AD-PSGD", Unit: "us", Better: "lower"},
	{Name: "ps.us_per_update.LC-ASGD", Unit: "us", Better: "lower"},
	{Name: "ps.updates", Unit: "count", Better: "higher"},
	{Name: "simclock.ns_per_event", Unit: "ns", Better: "lower"},

	{Name: "ps.eval_s", Unit: "s", Better: "lower"},
	{Name: "ps.eval_share", Unit: "ratio", Better: "lower"},
	{Name: "ps.backend_speedup", Unit: "ratio", Better: "higher"},

	{Name: "ps.ckpt_count", Unit: "count", Better: "lower"},
	{Name: "ps.ckpt_full_kb", Unit: "KB", Better: "lower"},
	{Name: "ps.ckpt_delta_kb", Unit: "KB", Better: "lower"},
	{Name: "ps.ckpt_stall_ms", Unit: "ms", Better: "lower"},
	{Name: "ps.ckpt_encode_ms", Unit: "ms", Better: "lower"},
	{Name: "ps.ckpt_write_ms", Unit: "ms", Better: "lower"},

	{Name: "snapshot.encode_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "snapshot.decode_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "snapshot.materialize_ms", Unit: "ms", Better: "lower"},
	{Name: "snapshot.save_ms", Unit: "ms", Better: "lower"},
	{Name: "snapshot.load_chain_ms", Unit: "ms", Better: "lower"},

	{Name: "ps.resume_overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "trainer.resume_saved_share", Unit: "ratio", Better: "higher"},

	{Name: "trainer.jobs_speedup", Unit: "ratio", Better: "higher"},
	{Name: "trainer.sched_util", Unit: "ratio", Better: "higher"},
	{Name: "trainer.cells", Unit: "count", Better: "lower"},
	{Name: "report.render_ms", Unit: "ms", Better: "lower"},

	{Name: "telemetry.overhead_pct", Unit: "%", Better: "lower"},
	{Name: "telemetry.events", Unit: "count", Better: "lower"},
	{Name: "telemetry.trace_mb", Unit: "MB", Better: "lower"},
	{Name: "telemetry.export_ms", Unit: "ms", Better: "lower"},

	{Name: "scenario.events_applied", Unit: "count", Better: "higher"},
	{Name: "ps.mean_staleness", Unit: "count", Better: "lower"},
	{Name: "ps.max_staleness", Unit: "count", Better: "lower"},
	{Name: "ps.result_crc32", Unit: "count", Better: "lower"},

	{Name: "go.alloc_mb", Unit: "MB", Better: "lower"},
	{Name: "go.gc_count", Unit: "count", Better: "lower"},

	{Name: "unattributed_s", Unit: "s", Better: "lower"},
}
