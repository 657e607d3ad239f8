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

// fleet tracks per-worker membership and connectivity. gen counts a
// worker's retirements: AfterWorker events capture the generation at
// scheduling time and are dropped if it moved, which is what makes a crash
// cancel the worker's in-flight pipeline without any backend coordination
// (the dispatched compute still drains on its lane, touching only
// worker-private state). cut marks workers computing behind a network
// partition — their commits are dropped until a Heal event — and parked
// marks cut workers idled because no Heal remains armed (computing forever
// for a server that will never answer would hang the run).
type fleet struct {
	active []bool
	gen    []uint64
	cut    []bool
	parked []bool

	// activeN and cutN count the true entries of active and cut.
	// Maintained at the O(1) membership/partition transitions
	// (retire/admit/Partition/Heal/restore) so stall detection and the
	// gossip fast path never scan the fleet — at M in the thousands an
	// O(M) walk per event is what these counters exist to avoid.
	activeN int
	cutN    int
}

func newFleet(workers int, scn *scenario.Scenario) *fleet {
	f := &fleet{
		active: make([]bool, workers),
		gen:    make([]uint64, workers),
		cut:    make([]bool, workers),
		parked: make([]bool, workers),
	}
	initial := workers
	if scn != nil && scn.InitialWorkers > 0 && scn.InitialWorkers < workers {
		initial = scn.InitialWorkers
	}
	for m := 0; m < initial; m++ {
		f.active[m] = true
	}
	f.activeN = initial
	return f
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
	gen := e.fleet.gen[m]
	e.inflight++
	e.clock.ScheduleAfter(delay, func() {
		e.inflight--
		if e.fleet.gen[m] == gen {
			f()
		}
	})
}

// Staleness returns the number of server updates applied since worker m's
// last Pull — the τ of staleness-aware update rules.
func (e *Engine) Staleness(m int) int { return e.srv.updates - e.snapUpdates[m] }

// Partitioned reports whether worker m is currently computing behind a
// network partition. The engine already drops such a worker's Commit and
// FoldStats; strategies that fold gradients across workers outside Commit
// (SSGD's barrier average) must consult it at fold time.
func (e *Engine) Partitioned(m int) bool { return e.fleet.cut[m] }

// psBlocked reports whether worker m counts toward blockedN: an active
// worker computing behind a partition with no Heal armed cannot contribute
// progress in parameter-server mode. The predicate is evaluated at each
// flag transition to keep the counter exact.
func (e *Engine) psBlocked(m int) bool {
	return e.fleet.active[m] && e.fleet.cut[m] && e.healArmedN[m] == 0
}

// retire removes worker m from the fleet: its generation advances (dropping
// every pending AfterWorker event) and barrier-style strategies are told so
// they stop waiting for it. A parked or recover-pending flag is cleared —
// retirement supersedes both. Must only be called on an active worker.
func (e *Engine) retire(m int) {
	if e.psBlocked(m) {
		e.blockedN--
	}
	e.wgen[m]++
	e.fleet.gen[m]++
	e.fleet.active[m] = false
	e.fleet.activeN--
	e.fleet.parked[m] = false
	e.recoverPend[m] = false
	if e.dec != nil {
		// The worker's local model freezes and leaves the consensus: its
		// exact stored values come off the running sum (see decentral.go).
		csum := e.dec.csum
		for i, v := range e.dec.w[m] {
			csum[i] -= v
		}
	}
	if fw, ok := e.strategy.(FleetWatcher); ok {
		fw.WorkerRetired(e, m)
	}
}

// admit (re-)adds worker m to the fleet and starts its first iteration. The
// worker's next Pull re-snapshots the server, so a recovered worker resumes
// from current state, not from where it crashed (unless Config.RecoverOpt
// marked it to restart from the last checkpoint instead — see Pull). Must
// only be called on an inactive worker.
func (e *Engine) admit(m int) {
	e.wgen[m]++ // covers recoverPend set just before a Recover-driven admit too
	e.fleet.active[m] = true
	e.fleet.activeN++
	if e.psBlocked(m) {
		e.blockedN++
	}
	if e.dec != nil {
		// The worker re-enters the consensus with the local model it froze
		// at retirement (or its initial model, for a first Join).
		csum := e.dec.csum
		for i, v := range e.dec.w[m] {
			csum[i] += v
		}
	}
	e.launch(m)
}

// armedScn is one scheduled-but-unfired scenario event. The engine keeps
// the armed set as data (not just closures on the clock) for two reasons:
// the stall guard needs to know whether anything can still revive or heal
// the fleet, and a checkpoint must serialize exactly the pending timeline —
// closures cannot cross a process boundary, but (event, arm-order) pairs
// can, and re-arming them in order reproduces the clock's tie-breaking.
//
// A fired event is tombstoned (dead=true) rather than spliced out: ids are
// strictly ascending in the slice, so disarm is a binary search plus a flag
// write, with compaction amortized over the dead half — O(log n) amortized
// instead of the O(n) splice a thousand-event timeline would otherwise pay
// per firing. The stall guard itself never reads this slice: the counters
// below (healArmedN, reviveArmedN, blockedN) are maintained at arm/disarm.
type armedScn struct {
	id   uint64
	ev   scenario.Event
	dead bool
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
		if ev.Worker >= len(e.reps) {
			continue
		}
		e.scheduleScenarioEvent(ev)
	}
}

// scheduleScenarioEvent arms one occurrence of ev and, for periodic events,
// re-arms the next occurrence after applying it. Arming maintains the
// stall-guard counters: a Heal for worker m unblocks m the moment it is
// armed (the worker will iterate toward the reconnection), so blockedN is
// adjusted before healArmedN moves 0→1.
func (e *Engine) scheduleScenarioEvent(ev scenario.Event) {
	id := e.armSeq
	e.armSeq++
	e.armed = append(e.armed, armedScn{id: id, ev: ev})
	switch ev.Kind {
	case scenario.Recover, scenario.Join:
		e.reviveArmedN++
	case scenario.Heal:
		e.reviveArmedN++
		if e.psBlocked(ev.Worker) {
			e.blockedN--
		}
		e.healArmedN[ev.Worker]++
	}
	e.clock.ScheduleAt(ev.At, func() {
		e.disarm(id)
		e.applyScenarioEvent(ev)
		if ev.Period > 0 && !e.srv.done() && !e.fleetStalled() {
			next := ev
			next.At = ev.At + ev.Period
			e.scheduleScenarioEvent(next)
		}
	})
}

// disarm tombstones a fired event in the armed set and reverses its
// contribution to the stall-guard counters. Ids are strictly ascending in
// e.armed (tombstones included), so the event is found by binary search;
// the slice compacts once more than half of it is dead.
func (e *Engine) disarm(id uint64) {
	lo, hi := 0, len(e.armed)
	for lo < hi {
		mid := (lo + hi) / 2
		if e.armed[mid].id < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo >= len(e.armed) || e.armed[lo].id != id || e.armed[lo].dead {
		return
	}
	a := &e.armed[lo]
	a.dead = true
	e.armedDead++
	switch a.ev.Kind {
	case scenario.Recover, scenario.Join:
		e.reviveArmedN--
	case scenario.Heal:
		e.reviveArmedN--
		w := a.ev.Worker
		e.healArmedN[w]--
		if e.psBlocked(w) {
			e.blockedN++
		}
	}
	if e.armedDead*2 > len(e.armed) {
		live := e.armed[:0]
		for _, s := range e.armed {
			if !s.dead {
				live = append(live, s)
			}
		}
		e.armed = live
		e.armedDead = 0
	}
}

// reviveArmed reports whether any armed event could restore progress to a
// fleet that currently has none: a Recover or Join brings a worker back, a
// Heal reconnects a parked one.
func (e *Engine) reviveArmed() bool { return e.reviveArmedN > 0 }

// healArmed reports whether a Heal for worker m is still armed. A
// partitioned worker keeps iterating only while one is — otherwise it
// parks, since every commit it could ever produce would be dropped.
func (e *Engine) healArmed(m int) bool { return e.healArmedN[m] > 0 }

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
	progressing := e.fleet.activeN
	if e.dec == nil {
		progressing -= e.blockedN
	}
	return progressing == 0 && e.reviveArmedN == 0 && e.inflight == 0
}

// rebuildFleetCounters is the definition of the fleet's O(1) counters:
// activeN, cutN, blockedN, healArmedN and reviveArmedN recomputed from the
// per-worker flags and the armed list alone. The transitions in this file
// keep the same values incrementally; restore, which loads armed events and
// flags in container order rather than causal order, calls this once after
// both are in.
func (e *Engine) rebuildFleetCounters() {
	clear(e.healArmedN)
	e.reviveArmedN = 0
	for _, a := range e.armed {
		if a.dead {
			continue
		}
		switch a.ev.Kind {
		case scenario.Recover, scenario.Join:
			e.reviveArmedN++
		case scenario.Heal:
			e.reviveArmedN++
			e.healArmedN[a.ev.Worker]++
		}
	}
	e.fleet.activeN, e.fleet.cutN, e.blockedN = 0, 0, 0
	for m := range e.fleet.active {
		if e.fleet.active[m] {
			e.fleet.activeN++
		}
		if e.fleet.cut[m] {
			e.fleet.cutN++
		}
		if e.psBlocked(m) {
			e.blockedN++
		}
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
		if !e.fleet.active[ev.Worker] {
			return
		}
		e.retire(ev.Worker)
	case scenario.Recover, scenario.Join:
		if e.fleet.active[ev.Worker] {
			return
		}
		if ev.Kind == scenario.Recover && e.cfg.RecoverOpt {
			// The recovered worker restarts from the last checkpoint's
			// server snapshot instead of pulling fresh state (consumed by
			// the next Pull). Join admits a brand-new worker: it has no
			// lost state to restore.
			e.recoverPend[ev.Worker] = true
		}
		e.admit(ev.Worker)
	case scenario.Partition:
		if e.fleet.cut[ev.Worker] {
			return
		}
		e.wgen[ev.Worker]++
		e.fleet.cut[ev.Worker] = true
		e.fleet.cutN++
		if e.psBlocked(ev.Worker) {
			e.blockedN++
		}
	case scenario.Heal:
		if !e.fleet.cut[ev.Worker] {
			return
		}
		e.wgen[ev.Worker]++
		if e.psBlocked(ev.Worker) {
			e.blockedN--
		}
		e.fleet.cut[ev.Worker] = false
		e.fleet.cutN--
		if e.fleet.parked[ev.Worker] {
			e.fleet.parked[ev.Worker] = false
			e.launch(ev.Worker)
		}
	}
	if e.tel != nil {
		e.telScenarioEvent(ev)
	}
	e.scnApplied++
}
