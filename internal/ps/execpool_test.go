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
// executor built is free again.
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
	if n := len(e.execs.free); n != int(builds.Load()) {
		t.Fatalf("%s: %d executors free of %d built", label, n, builds.Load())
	}
	if res.Updates == 0 {
		t.Fatalf("%s: the run made no update", label)
	}
	return res, int(builds.Load())
}

// TestExecutorPoolBounded: workers are flat states and networks come from
// the engine's pool, so what a run builds follows what computes at once,
// not the fleet. Every algorithm's step is one dispatch, and on the
// sequential backend the loop runs one at a time beside one evaluation
// shard, so at M = 256 every algorithm calls Env.Build at most twice. Under
// random crash/recover churn the pool stays within M plus the evaluation
// shards on either backend, whose lanes share the pool.
func TestExecutorPoolBounded(t *testing.T) {
	for _, algo := range []Algo{SGD, SSGD, ASGD, SAASGD, DCASGD, ADPSGD, LCASGD} {
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
