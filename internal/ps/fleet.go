package ps

import "lcasgd/internal/scenario"

// This file is the engine's fleet-lifecycle layer: which workers are
// currently part of the run, which are cut off from the server by a network
// partition, and how a scenario timeline (crashes, recoveries, elastic
// resizes, partitions) mutates that state on the simulated clock.
// Everything here runs on the event loop, so lane churn is identical — and
// results bit-identical — across backends.

// FleetWatcher is an optional Strategy refinement for algorithms whose
// scheduling spans workers (SSGD's barrier). The engine calls WorkerRetired
// on the event loop when a worker crashes or leaves; the worker's pending
// AfterWorker events are already cancelled at that point, so a strategy
// waiting on the worker must recompute (for a barrier: shrink the round,
// and close it if the retired worker was the last one outstanding).
// Admission needs no callback — the engine re-launches an admitted worker
// through the strategy's ordinary Launch. Partitions likewise need no
// callback: the worker stays in the fleet and keeps computing; strategies
// folding gradients across workers consult Partitioned at fold time.
type FleetWatcher interface {
	WorkerRetired(e *Engine, m int)
}

// worker is everything the engine keeps per worker, indexed by rank: the
// replica and the results of its last dispatch, its place in the fleet, and
// the state a decentralized run or an attached recorder adds. walkWorker
// says which of it a checkpoint carries.
type worker struct {
	rep  *replica
	loss float64 // last forward loss, set by dispatched compute
	wait func()  // waits for the most recent dispatch (orphan drain, see Pull)

	// link is the worker's membership, connectivity and armed-Heal count; it
	// changes only through setLink.
	link
	// gen counts the worker's retirements: AfterWorker events capture the
	// generation at scheduling time and are dropped if it moved, which is
	// what makes a crash cancel the worker's in-flight pipeline without any
	// backend coordination (the dispatched compute still drains on its lane,
	// touching only worker-private state).
	gen uint64
	// parked marks a cut worker idled because no Heal remains armed
	// (computing forever for a server that will never answer would hang the
	// run).
	parked      bool
	deferred    bool // a launch is waiting in Engine.deferred for the barrier
	recoverPend bool // Config.RecoverOpt: the next pull restores the last checkpoint
	snapUpdates int  // server update counter at the last Pull

	// Decentralized runs (decentral.go): the worker's persistent model and
	// its commit counter, the decentralized clock.
	w    []float64
	iter int

	// launchAt is the virtual time of the last launch — the start of the
	// commit/gossip span telemetry emits when the iteration lands.
	launchAt float64
}

// link is what the stall guard reads of a worker: whether it is part of the
// run, whether a network partition cuts it off from the server — its commits
// are dropped until a Heal event — and how many Heal events for it are armed.
type link struct {
	active bool
	cut    bool
	heals  int
}

// blocked reports whether the worker counts toward blockedN: an active
// worker computing behind a partition with no Heal armed cannot contribute
// progress in parameter-server mode.
func (l link) blocked() bool { return l.active && l.cut && l.heals == 0 }

// setLink is the one transition of worker m's link, and with
// rebuildFleetCounters the only place activeN, cutN and blockedN are written:
// each moves by the difference of its predicate across the change, so stall
// detection and the gossip fast path read counters instead of scanning the
// fleet — at M in the thousands an O(M) walk per event is what they exist to
// avoid — and no caller has to know which counters its change touches.
func (e *Engine) setLink(m int, to link) {
	l := &e.workers[m].link
	e.activeN += oneIf(to.active) - oneIf(l.active)
	e.cutN += oneIf(to.cut) - oneIf(l.cut)
	e.blockedN += oneIf(to.blocked()) - oneIf(l.blocked())
	*l = to
}

// AfterWorker schedules f on the virtual clock like After, bound to worker
// m's current fleet generation: if m is retired before the event fires, the
// event is dropped. Strategies use it for every per-worker pipeline stage so
// a crash cancels the worker's in-flight iteration; events that must fire
// regardless of fleet churn use After. Both are counted in the engine's
// in-flight tally so a checkpoint barrier knows when the pipelines have
// drained (a generation-dropped event still occupies the clock until its
// time, and still counts down when it fires).
func (e *Engine) AfterWorker(m int, delay float64, f func()) {
	gen := e.workers[m].gen
	e.inflight++
	e.clock.ScheduleAfter(delay, func() {
		e.inflight--
		if e.workers[m].gen == gen {
			f()
		}
	})
}

// Staleness returns the number of server updates applied since worker m's
// last Pull — the τ of staleness-aware update rules.
func (e *Engine) Staleness(m int) int { return e.srv.updates - e.workers[m].snapUpdates }

// Partitioned reports whether worker m is currently computing behind a
// network partition. The engine already drops such a worker's Commit and
// FoldStats; strategies that fold gradients across workers outside Commit
// (SSGD's barrier average) must consult it at fold time.
func (e *Engine) Partitioned(m int) bool { return e.workers[m].cut }

// retire removes worker m from the fleet: its generation advances (dropping
// every pending AfterWorker event) and barrier-style strategies are told so
// they stop waiting for it. A parked or recover-pending flag is cleared —
// retirement supersedes both — and in a decentralized run the worker's local
// model freezes and leaves the consensus. Must only be called on an active
// worker.
func (e *Engine) retire(m int) {
	w := &e.workers[m]
	l := w.link
	l.active = false
	e.setLink(m, l)
	w.gen++
	w.parked = false
	w.recoverPend = false
	if fw, ok := e.strategy.(FleetWatcher); ok {
		fw.WorkerRetired(e, m)
	}
}

// admit (re-)adds worker m to the fleet and starts its first iteration. The
// worker's next Pull re-snapshots the server, so a recovered worker resumes
// from current state, not from where it crashed (unless Config.RecoverOpt
// marked it to restart from the last checkpoint instead — see Pull); in a
// decentralized run it re-enters the consensus with the local model it froze
// at retirement (or its initial model, for a first Join). Must only be called
// on an inactive worker.
func (e *Engine) admit(m int) {
	l := e.workers[m].link
	l.active = true
	e.setLink(m, l)
	e.launch(m)
}

// installScenario compiles the configured scenario onto the clock. Events
// targeting ranks beyond the actual fleet are skipped, so one scenario
// serves any worker count (sequential SGD's one-replica fleet included).
func (e *Engine) installScenario() {
	scn := e.cfg.Scenario
	if scn == nil {
		return
	}
	for _, ev := range scn.Events {
		if ev.Worker >= len(e.workers) {
			continue
		}
		e.scheduleScenarioEvent(ev)
	}
}

// countArmed adds d = ±1 armed occurrences of ev to the stall-guard counters:
// reviveArmedN, the armed events that could restore progress to a fleet that
// has none (a Recover or Join brings a worker back, a Heal reconnects a
// parked one), and for a Heal its worker's own count — a Heal unblocks the
// worker the moment it is armed, since the worker will iterate toward the
// reconnection.
func (e *Engine) countArmed(ev scenario.Event, d int) {
	switch ev.Kind {
	case scenario.Recover, scenario.Join:
		e.reviveArmedN += d
	case scenario.Heal:
		e.reviveArmedN += d
		l := e.workers[ev.Worker].link
		l.heals += d
		e.setLink(ev.Worker, l)
	}
}

// scheduleScenarioEvent arms one occurrence of ev and, for periodic events,
// re-arms the next occurrence after applying it.
//
// The engine keeps the armed set as data (not just closures on the clock),
// keyed by arm order, for two reasons: the stall guard needs to know whether
// anything can still revive or heal the fleet, and a checkpoint must
// serialize exactly the pending timeline — closures cannot cross a process
// boundary, but events in arm order can, and re-arming them in that order
// reproduces the clock's tie-breaking. The stall guard itself never reads
// the set: countArmed keeps its counters at arm and at firing.
func (e *Engine) scheduleScenarioEvent(ev scenario.Event) {
	id := e.armSeq
	e.armSeq++
	e.armed[id] = ev
	e.countArmed(ev, +1)
	e.clock.ScheduleAt(ev.At, func() {
		delete(e.armed, id)
		e.countArmed(ev, -1)
		e.applyScenarioEvent(ev)
		if ev.Period > 0 && !e.srv.done() && !e.fleetStalled() {
			next := ev
			next.At = ev.At + ev.Period
			e.scheduleScenarioEvent(next)
		}
	})
}

// fleetStalled reports that no worker can make progress — every member is
// retired or parked behind a heal-less partition — nothing but scenario
// events remains on the clock, and no armed event can revive or heal
// anyone. Periodic events stop re-arming at that point; otherwise a
// timeline that permanently disables the fleet would tick forever while
// training never finishes. The run then truncates deterministically
// instead of hanging.
//
// In decentralized mode a cut worker still progresses (its commits land on
// its own model), so any active worker counts; in PS mode the workers
// blocked behind heal-less partitions are subtracted. Pure counter reads —
// the O(M) fleet walk and O(armed) scans this predicate used to do made
// every periodic scenario tick quadratic at large M.
func (e *Engine) fleetStalled() bool {
	progressing := e.activeN
	if e.dec == nil {
		progressing -= e.blockedN
	}
	return progressing == 0 && e.reviveArmedN == 0 && e.inflight == 0
}

// rebuildFleetCounters is the definition of the fleet's O(1) counters:
// activeN, cutN, blockedN, reviveArmedN and every worker's armed-Heal count
// recomputed from the per-worker flags and the armed set alone. setLink and
// countArmed keep the same values incrementally; restore, which loads armed
// events and flags in container order rather than causal order, calls this
// once after both are in.
func (e *Engine) rebuildFleetCounters() {
	e.reviveArmedN = 0
	for m := range e.workers {
		e.workers[m].heals = 0
	}
	for _, ev := range e.armed {
		e.countArmed(ev, +1)
	}
	// Whatever setLink made of the counters on the way, they are recounted
	// from the flags and the Heal counts just derived.
	e.activeN, e.cutN, e.blockedN = 0, 0, 0
	for m := range e.workers {
		l := e.workers[m].link
		e.activeN += oneIf(l.active)
		e.cutN += oneIf(l.cut)
		e.blockedN += oneIf(l.blocked())
	}
}

// applyScenarioEvent executes one timeline event at its virtual time.
// Redundant events (crashing a dead worker, admitting a live one,
// partitioning a cut one) are ignored and not counted, which makes periodic
// event pairs idempotent however they interleave with the run's natural
// end.
func (e *Engine) applyScenarioEvent(ev scenario.Event) {
	switch ev.Kind {
	case scenario.PhaseShift:
		if ev.Worker < 0 {
			e.sampler.SetPhase(ev.CompScale, ev.CommScale)
		} else {
			e.sampler.SetWorkerPhase(ev.Worker, ev.CompScale, ev.CommScale)
		}
	case scenario.Crash, scenario.Leave:
		if !e.workers[ev.Worker].active {
			return
		}
		e.retire(ev.Worker)
	case scenario.Recover, scenario.Join:
		if e.workers[ev.Worker].active {
			return
		}
		if ev.Kind == scenario.Recover && e.cfg.RecoverOpt {
			// The recovered worker restarts from the last checkpoint's
			// server snapshot instead of pulling fresh state (consumed by
			// the next Pull). Join admits a brand-new worker: it has no
			// lost state to restore.
			e.workers[ev.Worker].recoverPend = true
		}
		e.admit(ev.Worker)
	case scenario.Partition:
		l := e.workers[ev.Worker].link
		if l.cut {
			return
		}
		l.cut = true
		e.setLink(ev.Worker, l)
	case scenario.Heal:
		w := &e.workers[ev.Worker]
		l := w.link
		if !l.cut {
			return
		}
		l.cut = false
		e.setLink(ev.Worker, l)
		if w.parked {
			w.parked = false
			e.launch(ev.Worker)
		}
	}
	e.telScenarioEvent(ev)
	e.scnApplied++
}
