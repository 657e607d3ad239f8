package ps

import (
	"fmt"
	"slices"

	"lcasgd/internal/cluster"
	"lcasgd/internal/core"
	"lcasgd/internal/rng"
	"lcasgd/internal/scenario"
	"lcasgd/internal/simclock"
	"lcasgd/internal/telemetry"
)

// Engine owns everything a training run shares across algorithms: the
// worker replica fleet and its data shards, the parameter server, the BN
// statistics accumulator, the cost sampler, the curve recorder, the
// discrete-event clock, and the execution backend. A Strategy drives it
// through the exported primitives below; the engine guarantees that all
// shared state mutates only on the event loop, in virtual-clock order, so
// every backend produces bit-identical results. (The recorder evaluates a
// frozen copy of that state beside the loop; see eval.go.)
type Engine struct {
	cfg      Config
	env      Env
	strategy Strategy
	backend  Backend

	clock   *simclock.Clock
	sampler *cluster.Sampler
	workers []worker // the fleet, indexed by rank (fleet.go)
	srv     *server
	rec     *recorder

	seedRng   *rng.RNG
	modelSeed uint64

	stalenessSum int
	stalenessN   int
	maxStale     int

	// Scenario bookkeeping (fleet.go): the armed (scheduled, unfired)
	// timeline events as data, keyed by arm order, the arm-order counter,
	// and how many events have been applied.
	armed      map[uint64]scenario.Event
	armSeq     uint64
	scnApplied int

	// Stall-guard counters (fleet.go), so fleetStalled, the launch park check
	// and the gossip fast path never scan the fleet or the armed set: the
	// active workers, the cut ones, the active ones blocked behind heal-less
	// partitions (all three kept by setLink), and the armed revive-capable
	// events (Recover/Join/Heal, kept by countArmed).
	activeN      int
	cutN         int
	blockedN     int
	reviveArmedN int

	// inflight counts scheduled-but-unfired worker events (AfterWorker).
	// Zero means every worker pipeline has drained — the quiescence
	// condition a checkpoint barrier waits for.
	inflight int

	// Checkpoint-barrier state (checkpoint.go): the next barrier epoch,
	// whether the engine is currently draining toward a barrier and since
	// when (virtual ms), and the launches deferred during the drain
	// (re-armed right after the snapshot is taken — or, on resume, right
	// after it is restored).
	nextCkpt   int
	quiescing  bool
	drainStart float64
	deferred   []int

	// ck is the delta/off-loop checkpoint encoder (checkpoint.go).
	ck *ckptEnc

	// Last-checkpoint server state for Config.RecoverOpt: a recovered
	// worker flagged recoverPend restarts from this snapshot instead of
	// pulling the live server (see Pull).
	ckptW       []float64
	ckptBN      *core.BNAccumulator
	ckptUpdates int

	// Decentralized-mode state (decentral.go): the communication graph the
	// workers' persistent models gossip on. Nil for parameter-server runs.
	dec *decState

	// Telemetry state (telemetry.go): nil unless Env.Telemetry attached a
	// recorder. Emission goes through its nil-safe emit, keeping the
	// disabled hot paths at zero allocations.
	tel *telState
}

// newEngine builds the shared preamble the five run* monoliths used to
// duplicate: seed streams, fleet, server, recorder, sampler, clock, backend.
// The seed-stream derivation order is fixed here (model, cost, per-worker
// data, then strategy labels in Setup) and must not change: it is what makes
// runs reproducible and backends interchangeable.
func newEngine(env Env, st Strategy) *Engine {
	cfg := env.Cfg
	seedRng := rng.New(cfg.Seed)
	modelSeed := seedRng.Uint64()
	costRng := seedRng.SplitLabeled(200)

	M := cfg.Workers
	if fs, ok := st.(FleetSizer); ok {
		M = fs.FleetSize(cfg.Workers)
	}
	shards := workerData(env, M)
	workers := make([]worker, M)
	for m := range workers {
		workers[m].rep = newReplica(env.Build, modelSeed, shards[m], cfg.BatchSize, seedRng.SplitLabeled(uint64(300+m)))
	}
	rep0 := workers[0].rep
	bnMode := cfg.BNMode
	if bf, ok := st.(BNModeFixer); ok {
		bnMode = bf.FixBNMode(bnMode)
	}
	bnAcc := core.NewBNAccumulator(bnMode, cfg.BNDecay, rep0.bnChannels())
	w := slices.Clone(rep0.st.Values)
	bpe := env.Train.Len() / cfg.BatchSize

	e := &Engine{
		cfg:       cfg,
		env:       env,
		strategy:  st,
		backend:   newBackend(cfg.Backend, M),
		clock:     simclock.New(),
		sampler:   cfg.Cost.NewSampler(M, costRng),
		workers:   workers,
		srv:       newServer(w, bnAcc, cfg, bpe),
		seedRng:   seedRng,
		modelSeed: modelSeed,
		armed:     map[uint64]scenario.Event{},
		nextCkpt:  cfg.CheckpointEvery,
		ck:        newCkptEnc(env.Telemetry),
	}
	// A scenario may start the run from a partial fleet; the rest Join later.
	initial := M
	if scn := cfg.Scenario; scn != nil && scn.InitialWorkers > 0 && scn.InitialWorkers < M {
		initial = scn.InitialWorkers
	}
	for m := 0; m < initial; m++ {
		e.setLink(m, link{active: true})
	}
	e.rec = newRecorder(env, modelSeed, e.backend, e.srv)
	if env.Telemetry != nil {
		e.tel = newTelState(env.Telemetry, M)
	}
	return e
}

// offloop runs one job at a time on a goroutine beside the event loop — the
// shape the curve evaluator and the checkpoint writer share: the loop
// freezes what the job will read, starts it, carries on, and joins it at a
// closed list of places (the table in DESIGN.md "Persistence & resume").
// The zero value is idle; a job is one goroutine, so there is nothing to
// close.
type offloop[T any] struct {
	done chan T
	busy bool
}

// start runs job off the loop. At most one is in flight: join comes first.
func (o *offloop[T]) start(job func() T) {
	if o.busy {
		panic("ps: off-loop job started while one is in flight")
	}
	if o.done == nil {
		o.done = make(chan T, 1)
	}
	o.busy = true
	go func() { o.done <- job() }()
}

// join waits for the job in flight and returns its report; ok is false when
// there is none.
func (o *offloop[T]) join() (report T, ok bool) {
	if !o.busy {
		return report, false
	}
	o.busy = false
	return <-o.done, true
}

// close joins the evaluation in flight (it runs on the backend's
// ParallelFor) and closes the backend, so every way of dropping an engine —
// run, Resume, a test that builds one and never runs it — leaves no
// goroutine behind.
func (e *Engine) close() {
	e.rec.drain()
	e.backend.Close()
}

// run executes the strategy to budget exhaustion and assembles the result.
// A scenario that permanently empties the fleet truncates the run instead:
// the clock drains and the result carries however far training got.
func (e *Engine) run() Result {
	defer e.close()
	e.strategy.Setup(e)
	e.installScenario()
	for m := range e.workers {
		e.launch(m)
	}
	return e.loop()
}

// loop drives the event queue to completion, taking a checkpoint whenever a
// barrier drain reaches quiescence, then assembles the result.
func (e *Engine) loop() Result {
	for e.clock.Step() {
		if e.srv.done() {
			break
		}
		if e.quiescing && e.inflight == 0 {
			e.takeCheckpoint()
		}
	}
	// The run may still have a checkpoint write in flight (the writer
	// goroutine overlaps the simulation); it must commit — or its error
	// surface — before the run reports success.
	e.joinWriter()
	e.refreshConsensus()
	points := e.rec.finish(e.srv, e.clock.Now())
	e.telFinish()
	res := Result{
		Algo:           e.strategy.Algo(),
		BNMode:         e.cfg.BNMode,
		Points:         points,
		VirtualMs:      e.clock.Now(),
		Updates:        e.srv.updates,
		MaxStaleness:   e.maxStale,
		ScenarioEvents: e.scnApplied,
	}
	if e.stalenessN > 0 {
		res.MeanStaleness = float64(e.stalenessSum) / float64(e.stalenessN)
	}
	e.strategy.Finish(e, &res)
	return finalize(res, e.cfg)
}

// launch arms worker m's next iteration while it is part of the fleet and
// sample budget remains. During a checkpoint drain the launch is deferred
// (re-armed after the barrier); a partitioned worker with no heal in sight
// parks instead of computing for a server it can never reach.
func (e *Engine) launch(m int) {
	w := &e.workers[m]
	if !w.active || e.srv.done() {
		return
	}
	if e.quiescing {
		if !w.deferred {
			w.deferred = true
			e.deferred = append(e.deferred, m)
		}
		return
	}
	// A partitioned PS worker with no heal in sight computes for a server it
	// can never reach — every commit it could ever produce would be dropped —
	// so it parks. A decentralized worker keeps training its own model
	// regardless — its commits land locally — so it never parks.
	w.parked = e.dec == nil && w.blocked()
	if w.parked {
		return
	}
	w.launchAt = e.clock.Now()
	e.tel.emit(telemetry.Event{Kind: telemetry.KLaunch, Worker: int32(m), At: w.launchAt})
	e.strategy.Launch(e, m)
}

// --- engine services for strategies ---
//
// Everything below must be called from the event loop (Setup, Launch, or a
// scheduled event), never from dispatched compute.

// Config returns the run configuration with defaults applied.
func (e *Engine) Config() Config { return e.cfg }

// Workers is the size of the replica fleet.
func (e *Engine) Workers() int { return len(e.workers) }

// NParams is the flat parameter count of the model.
func (e *Engine) NParams() int { return len(e.workers[0].rep.st.Values) }

// Done reports whether the sample budget is exhausted.
func (e *Engine) Done() bool { return e.srv.done() }

// Now returns the current virtual time in milliseconds.
func (e *Engine) Now() float64 { return e.clock.Now() }

// Weights exposes the server's live weight vector. Strategies may read it
// (DC-ASGD's backup copy) but must mutate it only through Commit/Apply.
func (e *Engine) Weights() []float64 { return e.srv.w }

// Batches returns the number of mini-batches consumed so far.
func (e *Engine) Batches() int { return e.srv.batches }

// BatchesPerEpoch returns the global-epoch length in batches.
func (e *Engine) BatchesPerEpoch() int { return e.srv.bpe }

// SetLRScale installs a constant learning-rate multiplier (SSGD's and
// SA-ASGD's linear scaling). Call it from Setup, which a resume runs too, so
// no checkpoint holds the multiplier.
func (e *Engine) SetLRScale(s float64) { e.srv.lrScale = s }

// Rng derives a labeled child stream from the run's seed stream. Draw it in
// Setup — the derivation advances the parent stream, so call order is part
// of the reproducibility contract.
func (e *Engine) Rng(label uint64) *rng.RNG { return e.seedRng.SplitLabeled(label) }

// CommSample draws a one-way communication time for worker m.
func (e *Engine) CommSample(m int) float64 { return e.sampler.Comm(m) }

// CompSample draws a computation time for worker m's next iteration.
func (e *Engine) CompSample(m int) float64 { return e.sampler.Comp(m) }

// beginPull is what Pull and PullLocal do first. It drains the worker's
// most recent dispatch: a crash cancels the completion event that would have
// waited on it, so a recovered worker may still have an orphaned task
// touching the replica on its lane, and a pull must not overwrite replica
// state under it. In crash-free operation the strategy has already waited, so
// the drain returns immediately. Then it consumes the worker's recover-pending
// flag and reports whether this pull restores the last checkpoint: under
// Config.RecoverOpt, for a worker re-admitted by a Recover event, once a
// barrier has been taken — before the first there is no snapshot and the pull
// falls back to fresh state.
func (e *Engine) beginPull(m int) (w *worker, fromCkpt bool) {
	w = &e.workers[m]
	if w.wait != nil {
		w.wait()
	}
	fromCkpt = w.recoverPend && e.ckptW != nil
	w.recoverPend = false
	return w, fromCkpt
}

// Pull installs the server's current weights and global BN statistics into
// worker m's replica (Algorithm 1 lines 1–2) and snapshots the update
// counter for staleness accounting.
//
// Under Config.RecoverOpt, a worker re-admitted by a Recover event restores
// the last checkpoint's server snapshot instead (weights, BN statistics and
// update counter as of the barrier), so the staleness its recovered
// gradient commits with — and the error it induces — measures what losing
// the worker's optimizer-side state actually costs.
func (e *Engine) Pull(m int) {
	w, fromCkpt := e.beginPull(m)
	if fromCkpt {
		w.rep.pull(e.ckptW, e.ckptBN)
		w.snapUpdates = e.ckptUpdates
		return
	}
	w.rep.pull(e.srv.w, e.srv.bnAcc)
	w.snapUpdates = e.srv.updates
}

// CopyPulledWeights copies the parameters worker m's replica currently
// holds into dst. Immediately after Pull this is the exact vector the
// worker's gradient will be computed at — which is what DC-ASGD's delay
// compensation must back up, and which under RecoverOpt is not necessarily
// the live server state Weights returns.
func (e *Engine) CopyPulledWeights(m int, dst []float64) {
	copy(dst, e.workers[m].rep.st.Values)
}

// DispatchGradient runs worker m's full local step (forward + backward, no
// compensation) on the backend. After wait returns, Gradient(m) and Loss(m)
// hold the results.
func (e *Engine) DispatchGradient(m int) (wait func()) {
	w := &e.workers[m]
	return e.dispatch(m, 0, func() { w.loss, _ = w.rep.gradient() })
}

// DispatchForward runs worker m's forward pass on the backend. After wait
// returns, Loss(m) holds the batch loss and the replica's BN layers hold
// their batch statistics.
func (e *Engine) DispatchForward(m int) (wait func()) {
	w := &e.workers[m]
	return e.dispatch(m, 1, func() { w.loss = w.rep.forward() })
}

// DispatchBackward runs worker m's backward pass seeded with scale
// (Formula 5's compensation enters here). After wait returns, Gradient(m)
// holds the flat gradient.
func (e *Engine) DispatchBackward(m int, scale float64) (wait func()) {
	w := &e.workers[m]
	return e.dispatch(m, 2, func() { w.rep.backward(scale) })
}

// dispatch traces operation op (KDispatch's A) and hands task to worker m's
// lane, keeping its wait for the next pull to drain.
func (e *Engine) dispatch(m int, op int64, task func()) (wait func()) {
	e.tel.emit(telemetry.Event{Kind: telemetry.KDispatch, Worker: int32(m), At: e.clock.Now(), A: op})
	w := &e.workers[m]
	w.wait = e.backend.Dispatch(m, task)
	return w.wait
}

// Loss returns worker m's most recent forward loss. Valid only after the
// corresponding dispatch's wait has returned.
func (e *Engine) Loss(m int) float64 { return e.workers[m].loss }

// Gradient returns worker m's flat gradient buffer. Valid only after the
// corresponding dispatch's wait has returned; the buffer is reused by the
// worker's next backward pass, which cannot start before the next Launch.
func (e *Engine) Gradient(m int) []float64 { return e.workers[m].rep.st.Grads }

// FoldStats folds worker m's batch-normalization statistics into the global
// accumulator per the configured BN mode (Formulas 6–7). A partitioned
// worker's statistics are dropped with the rest of its commit — except in
// decentralized mode, where the commit itself lands locally: the batch
// still shapes a model that will eventually re-mix, so its statistics fold.
func (e *Engine) FoldStats(m int) {
	w := &e.workers[m]
	if e.dec == nil && w.cut {
		return
	}
	e.srv.bnAcc.Update(w.rep.st.BatchMean, w.rep.st.BatchVar)
}

// Commit lands grad on the server at the current virtual time: staleness
// accounting against the worker's last Pull, the server update (Formula 8's
// shared shape), curve recording, and the worker's next Launch while budget
// remains. A partitioned worker's commit is dropped wholesale — no update,
// no staleness sample, no budget consumed — and the worker simply iterates
// again, exactly the wasted work a real partition causes.
func (e *Engine) Commit(m int, grad []float64, batches int) {
	w := &e.workers[m]
	if w.cut {
		e.tel.emit(telemetry.Event{Kind: telemetry.KDrop, Worker: int32(m), At: e.clock.Now()})
		e.launch(m)
		return
	}
	st := e.Staleness(m)
	e.sampleStaleness(st)
	e.tel.emit(telemetry.Event{
		Kind: telemetry.KCommit, Worker: int32(m),
		At: w.launchAt, Dur: e.clock.Now() - w.launchAt, A: int64(st),
	})
	e.Apply(grad, batches)
	e.launch(m)
}

// Apply performs the raw server update without per-worker bookkeeping — the
// SSGD barrier path, where M gradients fold into one update. Most
// strategies use Commit instead. Crossing a checkpoint-barrier epoch here
// arms the quiescent drain (see checkpoint.go).
func (e *Engine) Apply(grad []float64, batches int) {
	e.srv.apply(grad, batches)
	e.tel.emit(telemetry.Event{Kind: telemetry.KUpdate, Worker: -1, At: e.clock.Now()})
	e.afterUpdate()
}

// sampleStaleness folds one staleness sample — a commit's update lag, or a
// gossip exchange's iteration lag — into the run's mean/max accounting.
func (e *Engine) sampleStaleness(st int) {
	e.stalenessSum += st
	if st > e.maxStale {
		e.maxStale = st
	}
	e.stalenessN++
}

// afterUpdate is the tail of every update, server or gossip: record a curve
// point if an epoch boundary was crossed, and arm the quiescent drain if it
// was a checkpoint-barrier epoch (see checkpoint.go).
func (e *Engine) afterUpdate() {
	e.recordCurve()
	if e.nextCkpt > 0 && e.srv.epoch() >= e.nextCkpt && !e.srv.done() {
		e.armQuiesce()
	}
}

// Relaunch arms worker m's next iteration if budget remains; strategies
// whose commits are not per-worker (SSGD's barrier) use it to restart the
// fleet.
func (e *Engine) Relaunch(m int) { e.launch(m) }

// assertQuiescent panics when worker events are still in flight; it guards
// checkpoint serialization, which is only sound at a quiescent boundary.
func assertQuiescent(e *Engine, where string) {
	if e.inflight != 0 {
		panic(fmt.Sprintf("ps: %s with %d worker events in flight", where, e.inflight))
	}
}
