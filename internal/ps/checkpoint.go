package ps

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"lcasgd/internal/scenario"
	"lcasgd/internal/snapshot"
)

// This file is the engine's run-persistence layer: freezing a live run at a
// quiescent checkpoint barrier and restoring it to a state that replays the
// remainder float-bit-identically.
//
// The barrier discipline is what makes that possible. Closures on the event
// queue cannot be serialized, so the engine never tries: when the server
// crosses a Config.CheckpointEvery epoch boundary, launches are deferred
// instead of started, the in-flight worker pipelines drain to completion
// (commits land at their natural times), and the snapshot is taken at the
// exact moment nothing remains on the clock but armed scenario events —
// which are plain data and re-arm verbatim on resume. The deferred launches
// are recorded, and both the uninterrupted run and the resumed run re-arm
// them identically right after the barrier, so the two timelines are the
// same timeline.
//
// Consequently the barrier is part of the run's definition: a run with
// CheckpointEvery=k pauses pipelining at every k-th epoch boundary exactly
// like a real synchronous-checkpoint system does, and its results are
// bit-identical whether it runs straight through or is killed and resumed
// at any barrier — but they differ (deterministically) from a run with no
// barriers. ConfigKey therefore includes CheckpointEvery.

// Checkpoint is one frozen quiescent state, produced by the engine at each
// barrier and consumed by Resume. Data is a snapshot.Container: every
// CheckpointFullEvery-th checkpoint is self-contained (Full), the ones
// between are deltas holding only the sections dirtied since the previous
// checkpoint (see ckptfast.go). Resume takes a full container; a delta
// chain is replayed into one with snapshot.Materialize, walking BaseEpoch
// back to the nearest full.
type Checkpoint struct {
	Epoch     int     // completed global epochs at the barrier
	Batches   int     // mini-batches consumed
	Updates   int     // server updates applied
	VirtualMs float64 // virtual time of the barrier
	Full      bool    // self-contained snapshot vs delta
	BaseEpoch int     // delta only: epoch of the checkpoint it chains onto
	Data      []byte  // snapshot.Container bytes; opaque outside this package
}

// ConfigKey returns the content key identifying a run: the hex SHA-256 of
// the canonical (defaults-applied) configuration. Everything that shapes
// the trajectory is included — algorithm, seed, scenario, checkpoint
// cadence — while the execution backend and the full-snapshot cadence are
// excluded, because they are bit-identical by construction: a run may
// checkpoint on the sequential backend and resume on the concurrent one,
// and full-vs-delta is an encoding choice. The experiment store addresses
// run directories by this key, and every checkpoint embeds it so a snapshot
// cannot be restored into a different experiment.
func ConfigKey(cfg Config) string {
	c := cfg.withDefaults()
	c.Backend = ""
	// Full-snapshot cadence is pure persistence policy: the barrier timeline
	// and every result bit are identical for any value, so like Backend it
	// must not fork the key (a run may checkpoint with one cadence and
	// resume with another).
	c.CheckpointFullEvery = 0
	b, err := json.Marshal(c)
	if err != nil {
		panic(fmt.Sprintf("ps: marshal config: %v", err)) // plain data struct; cannot fail
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// StrategySnapshotter is an optional Strategy refinement for algorithms
// that carry server-side state across iterations (LC-ASGD's predictors and
// iter log). SnapshotState is called at a quiescent barrier, after Setup
// has built the strategy's structures; RestoreState is called on a freshly
// Setup strategy and must leave it exactly as the snapshotting one was.
// Strategies whose cross-iteration state is provably empty at quiescence
// (SSGD's barrier bookkeeping) need not implement it — or may implement it
// as an emptiness assertion.
type StrategySnapshotter interface {
	SnapshotState(e *Engine, w *snapshot.Writer)
	RestoreState(e *Engine, r *snapshot.Reader) error
}

// Resume rebuilds the engine for env, restores the checkpoint payload, and
// runs the remainder of the training run. The result is bit-identical to
// what the uninterrupted run (same config, same checkpoint cadence) would
// have returned — curve points and predictor traces include the restored
// prefix. The checkpoint must have been taken under the same ConfigKey;
// resuming across backends is allowed.
func Resume(env Env, ckpt []byte) (Result, error) {
	cfg := env.Cfg.withDefaults()
	env.Cfg = cfg
	if env.Train == nil || env.Test == nil || env.Build == nil {
		panic("ps: Env requires Train, Test and Build")
	}
	if cfg.CheckpointEvery <= 0 {
		return Result{}, fmt.Errorf("ps: Resume requires Config.CheckpointEvery > 0")
	}
	e := newEngine(env, strategyFor(cfg))
	defer e.backend.Close()
	e.strategy.Setup(e)
	if err := e.restore(ckpt); err != nil {
		// Release the recorder's run binding: callers retry a failed resume
		// against other checkpoints or fall back to a full rerun, and each
		// attempt must start from a pristine recorder.
		if env.Telemetry != nil {
			env.Telemetry.Rollback()
		}
		return Result{}, fmt.Errorf("ps: resume: %w", err)
	}
	e.relaunchDeferred()
	return e.loop(), nil
}

// takeCheckpoint runs at the quiescent point of a barrier drain: it drains
// any orphaned lane tasks (crashed workers whose compute nobody waited on —
// harmless, but their batch iterators must be stable before serialization),
// refreshes the RecoverOpt snapshot, hands the serialized state to the
// sink, and re-arms the launches the drain deferred.
func (e *Engine) takeCheckpoint() {
	assertQuiescent(e, "checkpoint")
	// Join the evaluation in flight before any section is planned: the
	// snapshot's curve must end with the point of the boundary just crossed.
	e.rec.drain()
	e.quiescing = false
	e.nextCkpt = (e.srv.epoch()/e.cfg.CheckpointEvery + 1) * e.cfg.CheckpointEvery
	for m, w := range e.waits {
		if w != nil {
			w()
			e.waits[m] = nil
		}
	}
	// Decentralized runs re-anchor the consensus at the barrier — an exact
	// refold, not the incremental sum — so the RecoverOpt snapshot and the
	// serialized srv.w both hold the exact mean of the workers' models as
	// of this quiescent point, and the resumed run (which refolds on
	// restore) continues from bit-identical state.
	e.anchorConsensus()
	if e.cfg.RecoverOpt {
		e.ckptW = append(e.ckptW[:0], e.srv.w...)
		e.ckptBN = e.srv.bnAcc.Clone()
		e.ckptUpdates = e.srv.updates
	}
	if e.tel != nil {
		// Trace the barrier before serializing, so the drain span and the
		// checkpoint instant are inside the snapshot — a resumed run replays
		// them instead of re-observing them. Emitted whether or not a sink
		// listens: like the barrier itself, telemetry must not depend on
		// whether anyone records the bytes.
		e.telBarrier()
	}
	if e.env.CheckpointSink != nil {
		e.emitCheckpoint()
	}
	e.relaunchDeferred()
}

// relaunchDeferred re-arms the launches deferred during a barrier drain, in
// defer order — the identical order on the straight-through and resumed
// sides of a checkpoint, which keeps the event queue's tie-breaking
// identical too.
func (e *Engine) relaunchDeferred() {
	ds := e.deferred
	e.deferred = e.deferred[:0]
	for _, m := range ds {
		e.deferredSet[m] = false
	}
	for _, m := range ds {
		e.launch(m)
	}
}

// restoreSection locates one required section of a full container and runs
// its decoder against a bare reader over the payload.
func restoreSection(c *snapshot.Container, id snapshot.SectionID, f func(r *snapshot.Reader) error) error {
	s := c.Section(id)
	if s == nil {
		return fmt.Errorf("checkpoint is missing section (%d,%d)", id.Kind, id.Index)
	}
	r, err := snapshot.NewBareReader(bytes.NewReader(s.Payload))
	if err != nil {
		return err
	}
	if err := f(r); err != nil {
		return err
	}
	return r.Close()
}

// restore loads a full checkpoint container (see ckptfast.go for the
// section layout) into a freshly built (and Setup) engine. On success the
// engine is at the barrier's quiescent point: clock set, scenario events
// re-armed, deferred launches recorded but not yet re-armed
// (relaunchDeferred does that, mirroring the straight-through
// takeCheckpoint), and the delta cache seeded so the next checkpoint — a
// forced full, since this process never emitted the chain the store holds —
// reuses the restored blobs for sections that stay clean.
func (e *Engine) restore(data []byte) error {
	c, err := snapshot.DecodeContainer(data)
	if err != nil {
		return err
	}
	if c.Kind != snapshot.KindFull {
		return fmt.Errorf("%w (materialize the delta chain first)", snapshot.ErrNotFull)
	}
	if c.Key != ConfigKey(e.cfg) {
		return fmt.Errorf("checkpoint was taken under a different configuration (key %.16s…, want %.16s…)",
			c.Key, ConfigKey(e.cfg))
	}

	// Meta first: it carries the clock, the scalar state, and the shape
	// flags (worker count, point count, presence bits) the rest of the
	// container is validated against.
	var (
		now        float64
		nPoints    int
		nTelEvents int
		armed      []scenario.Event
		deferred   []int
	)
	if err := restoreSection(c, snapshot.SectionID{Kind: secMeta}, func(r *snapshot.Reader) error {
		if workers := r.Int(); r.Err() == nil && workers != len(e.reps) {
			return fmt.Errorf("checkpoint has %d workers, engine has %d", workers, len(e.reps))
		}
		now = r.F64()
		e.srv.lrScale = r.F64()
		e.srv.batches = r.Int()
		e.srv.updates = r.Int()
		seedState := r.U64s()
		if r.Err() == nil && len(seedState) != 4 {
			return fmt.Errorf("seed stream snapshot has %d words", len(seedState))
		}
		if r.Err() == nil {
			e.seedRng.SetState([4]uint64{seedState[0], seedState[1], seedState[2], seedState[3]})
		}
		if err := e.sampler.RestoreFrom(r); err != nil {
			return err
		}
		e.stalenessSum = r.Int()
		e.stalenessN = r.Int()
		e.maxStale = r.Int()
		e.scnApplied = r.Int()
		e.rec.lastEpoch = r.Int()
		nPoints = r.Int()
		if r.Err() == nil && (nPoints < 0 || nPoints > e.srv.batches+1) {
			return fmt.Errorf("checkpoint has implausible %d curve points", nPoints)
		}
		nArmed := r.Int()
		if r.Err() == nil && (nArmed < 0 || nArmed > 1<<20) {
			return fmt.Errorf("checkpoint has implausible %d armed events", nArmed)
		}
		armed = make([]scenario.Event, 0, nArmed)
		for i := 0; i < nArmed && r.Err() == nil; i++ {
			armed = append(armed, readScnEvent(r))
		}
		deferred = r.Ints()
		for _, m := range deferred {
			if m < 0 || m >= len(e.reps) {
				return fmt.Errorf("checkpoint defers launch of worker %d of %d", m, len(e.reps))
			}
		}
		hasDec := r.Bool()
		if r.Err() == nil && hasDec != (e.dec != nil) {
			return fmt.Errorf("checkpoint decentralized-state presence %v, engine expects %v", hasDec, e.dec != nil)
		}
		if hasDec && r.Err() == nil {
			selState := r.U64s()
			if r.Err() == nil && len(selState) != 4 {
				return fmt.Errorf("neighbor stream snapshot has %d words", len(selState))
			}
			if r.Err() == nil {
				e.dec.sel.SetState([4]uint64{selState[0], selState[1], selState[2], selState[3]})
			}
		}
		hasStrategy := r.Bool()
		_, wantStrategy := e.strategy.(StrategySnapshotter)
		if r.Err() == nil && hasStrategy != wantStrategy {
			return fmt.Errorf("checkpoint strategy-state presence %v, strategy expects %v", hasStrategy, wantStrategy)
		}
		hasTel := r.Bool()
		if r.Err() == nil && hasTel != (e.tel != nil) {
			// A mismatch is not restorable: with a recorder attached the
			// resumed run's telemetry would be missing its prefix, silently
			// breaking the byte-identity contract. Callers fall back to a
			// full rerun (the trainer's resume path already does).
			return fmt.Errorf("checkpoint telemetry presence %v, engine expects %v", hasTel, e.tel != nil)
		}
		if hasTel {
			nTelEvents = r.Int()
			if r.Err() == nil && nTelEvents < 0 {
				return fmt.Errorf("checkpoint has negative %d telemetry events", nTelEvents)
			}
		}
		return nil
	}); err != nil {
		return err
	}

	if err := restoreSection(c, snapshot.SectionID{Kind: secServerW}, func(r *snapshot.Reader) error {
		r.F64sInto(e.srv.w)
		return nil
	}); err != nil {
		return err
	}
	if err := restoreSection(c, snapshot.SectionID{Kind: secBN}, func(r *snapshot.Reader) error {
		return e.srv.bnAcc.RestoreFrom(r)
	}); err != nil {
		return err
	}

	nChunks := (nPoints + recChunkLen - 1) / recChunkLen
	e.rec.points = e.rec.points[:0]
	for i := 0; i < nChunks; i++ {
		want := nPoints - i*recChunkLen
		if want > recChunkLen {
			want = recChunkLen
		}
		if err := restoreSection(c, snapshot.SectionID{Kind: secRecChunk, Index: uint32(i)}, func(r *snapshot.Reader) error {
			if n := r.Int(); r.Err() == nil && n != want {
				return fmt.Errorf("curve chunk %d has %d points, meta promises %d", i, n, want)
			}
			for j := 0; j < want && r.Err() == nil; j++ {
				e.rec.points = append(e.rec.points, Point{
					Epoch: r.Int(), Time: r.F64(), TrainErr: r.F64(), TestErr: r.F64(),
				})
			}
			return nil
		}); err != nil {
			return err
		}
	}

	for m := range e.reps {
		m := m
		if err := restoreSection(c, snapshot.SectionID{Kind: secWorker, Index: uint32(m)}, func(r *snapshot.Reader) error {
			if err := e.reps[m].iter.RestoreFrom(r); err != nil {
				return err
			}
			e.fleet.active[m] = r.Bool()
			e.fleet.gen[m] = r.U64()
			e.fleet.cut[m] = r.Bool()
			e.fleet.parked[m] = r.Bool()
			e.snapUpdates[m] = r.Int()
			e.recoverPend[m] = r.Bool()
			if e.dec != nil {
				r.F64sInto(e.dec.w[m])
				e.dec.iter[m] = r.Int()
			}
			return nil
		}); err != nil {
			return err
		}
	}

	nExpected := 3 + nChunks + len(e.reps)
	if ss, ok := e.strategy.(StrategySnapshotter); ok {
		nExpected++
		if err := restoreSection(c, snapshot.SectionID{Kind: secStrategy}, func(r *snapshot.Reader) error {
			return ss.RestoreState(e, r)
		}); err != nil {
			return err
		}
	}
	if e.tel != nil {
		nTelChunks := telChunks(nTelEvents)
		nExpected += 1 + nTelChunks
		if err := restoreSection(c, snapshot.SectionID{Kind: secTelMetrics}, e.restoreTelMetrics); err != nil {
			return err
		}
		e.tel.rec.Events = e.tel.rec.Events[:0]
		for i := 0; i < nTelChunks; i++ {
			want := nTelEvents - i*telChunkLen
			if want > telChunkLen {
				want = telChunkLen
			}
			if err := restoreSection(c, snapshot.SectionID{Kind: secTelTrace, Index: uint32(i)}, func(r *snapshot.Reader) error {
				return e.restoreTelTrace(r, want)
			}); err != nil {
				return err
			}
		}
	}
	if len(c.Sections) != nExpected {
		return fmt.Errorf("checkpoint has %d sections, expected %d", len(c.Sections), nExpected)
	}

	// Everything decoded and verified; now mutate the live engine pieces
	// that need ordering: clock first, then the stall-guard counters from
	// the restored flags, then re-arm the scenario timeline in recorded
	// order (which adjusts those counters incrementally), then record the
	// deferred launches for relaunchDeferred.
	e.clock.RestoreNow(now)
	e.rebuildFleetCounters()
	e.refoldConsensusSum()
	for _, ev := range armed {
		if ev.At < now {
			return fmt.Errorf("checkpoint armed event at t=%v before barrier t=%v", ev.At, now)
		}
		e.scheduleScenarioEvent(ev)
	}
	e.deferred = append(e.deferred[:0], deferred...)
	for _, m := range e.deferred {
		e.deferredSet[m] = true
	}
	e.nextCkpt = (e.srv.epoch()/e.cfg.CheckpointEvery + 1) * e.cfg.CheckpointEvery
	if e.cfg.RecoverOpt {
		// The barrier's snapshot is by definition the last checkpoint.
		e.ckptW = append(e.ckptW[:0], e.srv.w...)
		e.ckptBN = e.srv.bnAcc.Clone()
		e.ckptUpdates = e.srv.updates
	}

	// Seed the delta cache from the restored container: sections still clean
	// at the next barrier reuse these blobs verbatim. The chain cursor stays
	// at -1 — the first post-resume checkpoint is forced full, because a
	// delta would have to base on the materialized container, which the
	// store never held (it holds the original full + deltas, whose framing
	// checksums differ).
	e.ck.seq = c.Seq + 1
	for _, s := range c.Sections {
		if s.ID.Kind == secMeta || s.ID.Kind == secStrategy || s.ID.Kind == secTelMetrics {
			continue
		}
		e.ck.cache[s.ID] = ckptBlob{payload: s.Payload, sum: s.Sum, gen: e.sectionGen(s.ID)}
	}
	return nil
}

// writeScnEvent / readScnEvent serialize one scenario timeline event.
func writeScnEvent(w *snapshot.Writer, ev scenario.Event) {
	w.F64(ev.At)
	w.F64(ev.Period)
	w.String(string(ev.Kind))
	w.Int(ev.Worker)
	w.F64(ev.CompScale)
	w.F64(ev.CommScale)
}

func readScnEvent(r *snapshot.Reader) scenario.Event {
	return scenario.Event{
		At:        r.F64(),
		Period:    r.F64(),
		Kind:      scenario.Kind(r.String()),
		Worker:    r.Int(),
		CompScale: r.F64(),
		CommScale: r.F64(),
	}
}
