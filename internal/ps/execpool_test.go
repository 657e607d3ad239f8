package ps

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"lcasgd/internal/nn"
	"lcasgd/internal/rng"
)

// runCountingBuilds runs env on a hand-built engine, counting its calls to
// Env.Build, and checks the pool's books once the run has closed: every
// executor built is either free or held by the worker whose forward took it.
func runCountingBuilds(t *testing.T, label string, env Env) (Result, int) {
	t.Helper()
	var builds atomic.Int64
	build := env.Build
	env.Build = func(g *rng.RNG) *nn.Sequential {
		builds.Add(1)
		return build(g)
	}
	env.Cfg = env.Cfg.withDefaults()
	e := newEngine(env, strategyFor(env.Cfg))
	res := e.run()
	held := 0
	for m := range e.workers {
		if e.workers[m].exec != nil {
			held++
		}
	}
	if n := len(e.execs.free) + held; n != int(builds.Load()) {
		t.Fatalf("%s: %d executors free and %d held of %d built", label, len(e.execs.free), held, builds.Load())
	}
	if res.Updates == 0 {
		t.Fatalf("%s: the run made no update", label)
	}
	return res, int(builds.Load())
}

// TestExecutorPoolBounded: workers are flat states and networks come from
// the engine's pool, so what a run builds follows what computes at once,
// not the fleet. On the sequential backend the loop runs one dispatch at a
// time beside one evaluation shard, so at M = 256 every algorithm whose
// step is one dispatch calls Env.Build at most twice. An LC-ASGD worker
// holds its executor from forward to backward, and keeps it across a crash
// in between, so under random crash/recover churn the pool stays within M
// plus the evaluation shards on either backend, and so do ASGD, SSGD and
// AD-PSGD on the concurrent backend, whose lanes share the pool.
func TestExecutorPoolBounded(t *testing.T) {
	for _, algo := range []Algo{SGD, SSGD, ASGD, SAASGD, DCASGD, ADPSGD} {
		label := fmt.Sprintf("%s/sequential/M256", algo)
		if _, builds := runCountingBuilds(t, label, tinyEnvSeeded(algo, 256, 2)); builds > 2 {
			t.Fatalf("%s: %d networks built, want at most 2 whatever the fleet size", label, builds)
		}
	}
	const M = 16
	for _, kind := range []BackendKind{BackendSequential, BackendConcurrent} {
		shards := 1
		if kind == BackendConcurrent {
			shards = min(M, runtime.GOMAXPROCS(0))
		}
		for _, algo := range []Algo{LCASGD, ASGD, SSGD, ADPSGD} {
			for seed := uint64(1); seed <= 3; seed++ {
				label := fmt.Sprintf("%s/%s/seed%d", algo, kind, seed)
				env := randomizedEnv(algo, M, 6, seed, 120, 24)
				env.Cfg.Backend = kind
				if _, builds := runCountingBuilds(t, label, env); builds > M+shards {
					t.Fatalf("%s: %d networks built, want at most %d workers plus %d evaluation shards", label, builds, M, shards)
				}
			}
		}
	}
}
