package ps

import (
	"fmt"

	"lcasgd/internal/telemetry"
	"lcasgd/internal/topology"
)

// This file is the engine's decentralized-training layer: per-worker
// persistent model state on a communication graph, for strategies that
// replace the parameter server with neighbor averaging (AD-PSGD, Lian et
// al. 2017). A decentralized strategy calls EnableDecentralized from Setup,
// then uses PullLocal/GossipCommit instead of Pull/Commit. Everything here
// runs on the event loop, so gossip averages land in virtual-clock order
// and both backends stay bit-identical.
//
// State ownership changes from the PS algorithms: each worker owns a
// persistent weight vector (worker.w) that survives across its
// iterations — the replica is merely the compute view it is refreshed from
// at each launch — while the server's weight vector srv.w is demoted to a
// lazily refreshed consensus cache (the mean of the active workers' models)
// used only for evaluation, checkpoint-recovery snapshots and result
// reporting.
//
// Staleness gets a decentralized definition: there is no server update
// counter to lag behind, so each gossip exchange samples the iteration lag
// max(0, iter[partner] − iter[m]) — how many commits ahead the averaged
// neighbor is. The sample feeds the same mean/max accounting the PS
// algorithms use, making the robustness grid's staleness columns comparable
// across both families.
//
// Partition semantics change too: a cut worker cannot gossip (no partner
// passes the reachability filter, in either direction), but it keeps
// training its own model and consuming budget — on a graph a partition
// splits the fleet into components that drift apart until a Heal lets them
// re-mix, rather than silencing individual workers as the PS algorithms do.

// Seed-stream labels for the topology layer, drawn in Setup in this order
// (after any strategy labels a PS algorithm would draw — the labels only
// need to be stable per algorithm).
const (
	topoGraphLabel    = 410 // graph wiring (consumed only by random topologies)
	topoNeighborLabel = 411 // gossip partner selection stream
)

// topologyGraph builds the run's communication graph from Config.Topology
// (empty means ring), consuming the graph-wiring stream. The stream is
// drawn whether or not the topology is random, so the seed stream's
// position does not depend on the spec.
func (e *Engine) topologyGraph() (*topology.Graph, error) {
	return topology.Parse(e.cfg.Topology, len(e.workers), e.Rng(topoGraphLabel))
}

// decState is the engine's decentralized-mode extension: the communication
// graph and the partner-selection stream. The per-worker models and commit
// counters live in the worker records.
type decState struct {
	graph *topology.Graph
	sel   *topology.Selector
}

// EnableDecentralized switches the engine into decentralized mode on the
// given communication graph. Call it from Strategy.Setup, after deriving the
// graph (typically via topology.Parse with the topoGraphLabel stream); the
// partner-selection stream (topoNeighborLabel) is derived here, so the
// seed-stream order is fixed: graph wiring first, neighbor stream second.
// Every worker starts from the common model initialization, exactly like a
// first Pull from a fresh server.
func (e *Engine) EnableDecentralized(g *topology.Graph) {
	if g.Workers() != len(e.workers) {
		panic(fmt.Sprintf("ps: topology spans %d workers, fleet has %d", g.Workers(), len(e.workers)))
	}
	if e.dec != nil {
		panic("ps: EnableDecentralized called twice")
	}
	e.dec = &decState{graph: g, sel: topology.NewSelector(g, e.Rng(topoNeighborLabel))}
	for m := range e.workers {
		e.workers[m].w = append([]float64(nil), e.srv.w...)
	}
}

// Topology returns the communication graph of a decentralized run, or nil
// for a parameter-server run.
func (e *Engine) Topology() *topology.Graph {
	if e.dec == nil {
		return nil
	}
	return e.dec.graph
}

// PullLocal installs worker m's own persistent weights — not the server's —
// into its replica, along with the global BN statistics. Like Pull it first
// drains the worker's most recent dispatch, so a crash-recovered worker's
// orphaned lane task cannot race the refresh.
//
// Under Config.RecoverOpt, a worker re-admitted by a Recover event restores
// the last checkpoint's consensus snapshot into its local model instead:
// the decentralized analogue of restarting from the checkpoint. Without
// RecoverOpt a recovered worker simply resumes from its old local weights —
// they are exactly as stale as the crash left them, which the iteration-lag
// staleness metric then shows.
func (e *Engine) PullLocal(m int) {
	w, fromCkpt := e.beginPull(m)
	bn := e.srv.bnAcc
	if fromCkpt {
		copy(w.w, e.ckptW)
		bn = e.ckptBN
	}
	w.rep.pull(w.w, bn)
}

// GossipCommit lands worker m's iteration at the current virtual time: one
// partner draw from the neighbor stream, a pairwise average with the chosen
// partner's model (the gossip step), the local gradient step on m's own
// weights at the schedule's learning rate, budget accounting, curve
// recording against the refreshed consensus, and the worker's next launch.
// Exactly one draw is consumed whether or not a partner is reachable, so
// the stream position is a pure function of commit order.
func (e *Engine) GossipCommit(m int, grad []float64, batches int) {
	d := e.dec
	w := &e.workers[m]
	var partner int
	if e.activeN == len(e.workers) && e.cutN == 0 {
		// No-churn fast path: with every worker active and uncut the
		// reachability filter passes every neighbor, so the draw indexes
		// the neighbor list directly — the same partner the filtered walk
		// returns, without its O(degree) scans (O(M) on dense graphs) or
		// the filter closure's allocation.
		partner = d.sel.PickUniform(m)
	} else {
		partner = d.sel.Pick(m, func(j int) bool {
			p := &e.workers[j]
			return p.active && !p.cut && !w.cut
		})
	}
	lag := 0
	if partner >= 0 {
		// Decentralized staleness: how many commits ahead the averaged
		// neighbor is. No sample when the worker steps alone — there is no
		// exchange to measure.
		p := &e.workers[partner]
		lag = max(0, p.iter-w.iter)
		e.sampleStaleness(lag)
		wm, wp := w.w, p.w
		for i := range wm {
			avg := 0.5 * (wm[i] + wp[i])
			wm[i], wp[i] = avg, avg
		}
	}
	// The local step reads the learning rate before the consumed batches
	// advance the epoch, as server.apply does.
	sgdStep(w.w, grad, e.srv.lr(), e.srv.wd)
	w.iter++
	e.srv.updates++
	e.srv.batches += batches
	if e.tel != nil {
		e.tel.gossips.Inc(m)
		e.tel.rec.Emit(telemetry.Event{
			Kind: telemetry.KGossip, Worker: int32(m),
			At: w.launchAt, Dur: e.clock.Now() - w.launchAt, A: int64(partner), B: int64(lag),
		})
	}
	if e.rec.due(e.srv) {
		e.refreshConsensus()
	}
	e.afterUpdate()
	e.launch(m)
}

// refreshConsensus refreshes the consensus cache srv.w as the mean of the
// active workers' local models: their sum folded in ascending rank order from
// zero, times 1/n. It runs lazily — before a curve point is recorded, at
// checkpoint barriers, and once at the end of the run — never per commit, so
// its O(M·nParams) is paid at the cadence EvalEvery and CheckpointEvery set,
// beside an evaluation or an encode that costs as much. With zero active
// workers (a scenario that empties the fleet) the previous consensus is kept.
// No-op for parameter-server runs.
//
// Determinism: the models mutate only on the event loop in virtual-clock
// order and the fold order is fixed, so the value is identical across
// backends, and on the straight-through and resumed sides of a barrier.
func (e *Engine) refreshConsensus() {
	if e.dec == nil || e.activeN == 0 {
		return
	}
	w := e.srv.w
	clear(w)
	for m := range e.workers {
		if wk := &e.workers[m]; wk.active {
			for i, v := range wk.w {
				w[i] += v
			}
		}
	}
	inv := 1 / float64(e.activeN)
	for i := range w {
		w[i] *= inv
	}
}
