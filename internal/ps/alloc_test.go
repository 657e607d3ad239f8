package ps

import (
	"testing"

	"lcasgd/internal/rng"
	"lcasgd/internal/tensor"
)

// TestWorkerIterationZeroAllocSteadyState pins the full worker-local
// iteration — pull (weights + BN install), forward, compensated
// backward, BN stats refresh and fold — to zero heap
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

// TestReplicaRecoveryRepullZeroAlloc runs the sequence a crash-recovered
// worker performs — pull, forward, then a re-pull without ever finishing the
// cancelled iteration, then a full local step: the replica owns its one
// input buffer, so the recovered iteration produces a real gradient and the
// whole cycle allocates nothing.
func TestReplicaRecoveryRepullZeroAlloc(t *testing.T) {
	rep, w, bnAcc := benchReplica(tinyEnvSeeded(ASGD, 1, 2))
	var loss float64
	var grad []float64
	cycle := func() {
		rep.pull(w, bnAcc)
		rep.forward()
		rep.pull(w, bnAcc) // crash-recovery re-pull, iteration abandoned
		loss, grad = rep.gradient()
	}
	for i := 0; i < 12; i++ { // warm across an epoch wrap
		cycle()
	}
	if loss <= 0 || len(grad) != rep.nParams {
		t.Fatalf("recovered iteration produced loss %v, %d grads", loss, len(grad))
	}
	if a := testing.AllocsPerRun(20, cycle); a != 0 {
		t.Fatalf("pull/forward/re-pull/gradient cycle allocates %v times, want 0", a)
	}
}

// TestEvalZeroAllocSteadyState pins a warmed evaluation pass (per-shard
// input, label and prediction buffers) to zero allocations per batch loop.
// The tiny env's sizes are deliberately awkward for EvalBatch=150:
// Train=160 is a full batch plus a 10-sample remainder and Test=80 is a
// lone partial batch, so alternating the two datasets through the same
// shard nets runs batches of 150, 10 and 80 rows back to back — each at
// its true size, each served from the capacity the full batch left in the
// shard's input buffer and the layers' reuse buffers (a reallocation per
// size change would show up as the whole layer zoo, twice per pass).
func TestEvalZeroAllocSteadyState(t *testing.T) {
	env := tinyEnvSeeded(ASGD, 1, 2)
	cfg := env.Cfg.withDefaults()
	_, w, bnAcc := benchReplica(env)
	ev := newEvaluator(env.Build, rng.New(cfg.Seed).Uint64(), cfg.EvalBatch, seqBackend{})
	ev.errOn(env.Train, w, bnAcc) // warm pool + buffers
	ev.errOn(env.Test, w, bnAcc)
	inputs := make([]*tensor.Tensor, len(ev.nets))
	for i, n := range ev.nets {
		inputs[i] = n.x
	}
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
	// One input buffer per shard net served all three batch sizes.
	for i, n := range ev.nets {
		if want := cfg.EvalBatch * env.Train.Features(); n.x != inputs[i] || cap(n.x.Data) != want {
			t.Fatalf("shard %d: input buffer replaced or capacity %d, want the warm buffer at %d", i, cap(n.x.Data), want)
		}
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
		// Join that point's evaluation: it runs off the loop, and its
		// allocations would otherwise be charged to Commit.
		e.rec.drain()
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
		e.rec.drain()
		if a := testing.AllocsPerRun(20, commit); a != 0 {
			t.Fatalf("steady-state gossip commit allocates %v times, want 0", a)
		}
	})
}
