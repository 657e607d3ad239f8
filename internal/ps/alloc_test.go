package ps

import (
	"testing"

	"lcasgd/internal/core"
	"lcasgd/internal/rng"
)

// TestWorkerIterationZeroAllocSteadyState pins the full worker-local
// iteration — pull (weights + BN install + workspace reset), forward,
// compensated backward, BN stats refresh and fold — to zero heap
// allocations once the buffers are warm, for both a dense MLP and the
// full conv/BN/residual stack. This is the tentpole regression guard:
// the previous implementation allocated fresh tensors in every layer of
// every pass.
func TestWorkerIterationZeroAllocSteadyState(t *testing.T) {
	for _, tc := range []struct {
		name string
		env  Env
	}{
		{"mlp", tinyEnvSeeded(ASGD, 1, 2)},
		{"resnet", convEnvSeeded(ASGD, 1, 2)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rep, w, bnAcc := benchReplica(tc.env)
			iter := func() {
				rep.pull(w, bnAcc)
				rep.forward()
				rep.backward(1.25) // compensated path, like LC-ASGD
				bnAcc.Update(rep.stats())
			}
			// Warm across an epoch wrap so the reshuffle path is exercised.
			for i := 0; i < 12; i++ {
				iter()
			}
			if a := testing.AllocsPerRun(20, iter); a != 0 {
				t.Fatalf("steady-state worker iteration allocates %v times, want 0", a)
			}
		})
	}
}

// TestReplicaPullResetsWorkspace pins the reset-on-recovery rule: every
// pull — including the re-pull a recovered worker performs after a crash
// cancelled its iteration mid-flight — must rewind the replica's workspace
// so the next iteration replays the same buffers instead of aliasing onto
// stale ones.
func TestReplicaPullResetsWorkspace(t *testing.T) {
	rep, w, bnAcc := benchReplica(tinyEnvSeeded(ASGD, 1, 2))
	rep.pull(w, bnAcc)
	gen := rep.ws.Generation()
	rep.forward() // mid-iteration: one live batch buffer
	if rep.ws.Live() != 1 {
		t.Fatalf("live workspace buffers mid-iteration: %d, want 1", rep.ws.Live())
	}
	rep.pull(w, bnAcc) // crash-recovery re-pull without finishing the iteration
	if rep.ws.Generation() != gen+1 {
		t.Fatalf("pull did not advance the workspace generation: %d -> %d", gen, rep.ws.Generation())
	}
	if rep.ws.Live() != 0 {
		t.Fatalf("live workspace buffers after re-pull: %d, want 0", rep.ws.Live())
	}
	// The recovered iteration must replay cleanly and not grow the arena.
	loss, grad := rep.gradient()
	if loss <= 0 || len(grad) != rep.nParams {
		t.Fatalf("recovered iteration produced loss %v, %d grads", loss, len(grad))
	}
	if rep.ws.Live() != 1 {
		t.Fatalf("workspace grew after recovery: %d live buffers", rep.ws.Live())
	}
}

// TestEvalZeroAllocSteadyState pins a warmed evaluation pass (per-shard
// workspace, label and prediction buffers) to zero allocations per batch
// loop. The tiny env's sizes are deliberately awkward for EvalBatch=150:
// Train=160 is a full batch plus a 10-sample remainder and Test=80 is a
// lone partial batch, so alternating the two datasets through the same
// shard nets runs batches of 150, 10 and 80 rows back to back — each at
// its true size, each served from the capacity the full batch left in the
// layers' reuse buffers (a reallocation per size change would show up as
// the whole layer zoo, twice per pass).
func TestEvalZeroAllocSteadyState(t *testing.T) {
	env := tinyEnvSeeded(ASGD, 1, 2)
	cfg := env.Cfg.withDefaults()
	seedRng := rng.New(cfg.Seed)
	modelSeed := seedRng.Uint64()
	rep := newReplica(env.Build, modelSeed, env.Train, cfg.BatchSize, seedRng.SplitLabeled(300))
	bnAcc := core.NewBNAccumulator(cfg.BNMode, 0.2, rep.bns)
	w := make([]float64, rep.nParams)
	flatten(rep, w)
	ev := newEvaluator(env.Build, modelSeed, cfg.EvalBatch, seqBackend{})
	ev.errOn(env.Train, w, bnAcc) // warm pool + buffers
	ev.errOn(env.Test, w, bnAcc)
	iter := func() {
		ev.errOn(env.Train, w, bnAcc)
		ev.errOn(env.Test, w, bnAcc)
	}
	if a := testing.AllocsPerRun(5, iter); a > 4 {
		// errOn pays two tiny per-PASS allocations (the counts slice and the
		// ParallelFor closure); the per-BATCH path must be allocation-free,
		// which this bound catches: one extra alloc per batch would show up
		// as dozens per iteration.
		t.Fatalf("steady-state evaluation allocates %v times per train+test pass, want <= 4", a)
	}
}

// TestCommitZeroAllocSteadyState pins the server-side commit paths to zero
// heap allocations once warm: the PS path (staleness accounting, server
// update, curve-record check, relaunch gate) and the decentralized gossip
// path (uniform partner draw, pairwise average with consensus-sum deltas,
// local step, lazy-refresh gate). The budget is zeroed so Commit's relaunch
// parks instead of arming the next iteration — the per-iteration dispatch
// closures are deliberately outside this guard; they amortize against a full
// forward/backward pass, while the paths pinned here run once per event at
// any fleet size.
func TestCommitZeroAllocSteadyState(t *testing.T) {
	newWarmEngine := func(algo Algo, workers int) *Engine {
		env := tinyEnvSeeded(algo, workers, 2)
		env.Cfg = env.Cfg.withDefaults()
		e := newEngine(env, strategyFor(env.Cfg))
		t.Cleanup(e.close)
		e.strategy.Setup(e)
		e.srv.target = 0
		return e
	}
	t.Run("ps", func(t *testing.T) {
		e := newWarmEngine(ASGD, 2)
		grad := make([]float64, e.NParams())
		for i := range grad {
			grad[i] = 1e-3
		}
		commit := func() { e.Commit(0, grad, 0) }
		commit() // warm: first commit records the epoch-0 curve point
		if a := testing.AllocsPerRun(20, commit); a != 0 {
			t.Fatalf("steady-state PS commit allocates %v times, want 0", a)
		}
	})
	t.Run("gossip", func(t *testing.T) {
		e := newWarmEngine(ADPSGD, 4)
		grad := make([]float64, e.NParams())
		for i := range grad {
			grad[i] = 1e-3
		}
		commit := func() { e.GossipCommit(1, grad, 0) }
		commit()
		if a := testing.AllocsPerRun(20, commit); a != 0 {
			t.Fatalf("steady-state gossip commit allocates %v times, want 0", a)
		}
	})
}
