package ps

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"maps"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"lcasgd/internal/scenario"
	"lcasgd/internal/snapshot"
	"lcasgd/internal/telemetry"
)

// This file is the engine's run-persistence layer: freezing a live run at a
// quiescent checkpoint barrier and restoring it to a state that replays the
// remainder float-bit-identically. It owns the checkpoint format — the
// sections table below is the one place that says what a checkpoint holds —
// and both directions of it: emitCheckpoint and restore walk the same table.
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
// between are deltas holding only the sections whose bytes moved since the
// previous checkpoint. Resume takes a full container; a delta chain is replayed into
// one with snapshot.Materialize, walking BaseEpoch back to the nearest full.
// The header is the store's own (the engine leaves Key empty;
// snapshot.RunDir.SaveCheckpoint stamps it).
type Checkpoint struct {
	snapshot.CkptMeta
	Data []byte // snapshot.Container bytes; opaque outside this package
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
// iter log). WalkState writes that state at a quiescent barrier, after Setup
// has built the strategy's structures, and reads it back into a freshly
// Setup strategy, which it must leave exactly as the writing one was.
// Strategies whose cross-iteration state is provably empty at quiescence
// (SSGD's barrier bookkeeping) need not implement it — or may implement it
// as an emptiness assertion.
type StrategySnapshotter interface {
	WalkState(e *Engine, c snapshot.Codec)
}

// Resume rebuilds the engine for env, restores the checkpoint payload, and
// runs the remainder of the training run. The result is bit-identical to
// what the uninterrupted run (same config, same checkpoint cadence) would
// have returned — curve points and predictor traces include the restored
// prefix. The checkpoint must have been taken under the same ConfigKey;
// resuming across backends is allowed. The bytes are not trusted: anything
// that is not a checkpoint of this configuration comes back as an error,
// and callers fall back to an older checkpoint or a full rerun.
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
	defer e.close()
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
	// Join the evaluation in flight before any section is encoded: the
	// snapshot's curve must end with the point of the boundary just crossed.
	e.rec.drain()
	e.quiescing = false
	for m := range e.workers {
		if w := &e.workers[m]; w.wait != nil {
			w.wait()
			w.wait = nil
		}
	}
	// Decentralized runs refresh the consensus at the barrier, so the
	// RecoverOpt snapshot and the serialized srv.w both hold the mean of the
	// workers' models as of this quiescent point.
	e.refreshConsensus()
	e.atBarrier()
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

// atBarrier sets what a barrier fixes on both of its sides — the side that
// took the snapshot and the side that restored it: the next barrier epoch,
// and the RecoverOpt copy of the server, which is by definition the state
// of the last checkpoint.
func (e *Engine) atBarrier() {
	e.nextCkpt = (e.srv.epoch()/e.cfg.CheckpointEvery + 1) * e.cfg.CheckpointEvery
	if e.cfg.RecoverOpt {
		e.ckptW = append(e.ckptW[:0], e.srv.w...)
		e.ckptBN = e.srv.bnAcc.Clone()
		e.ckptUpdates = e.srv.updates
	}
}

// relaunchDeferred re-arms the launches deferred during a barrier drain, in
// defer order — the identical order on the straight-through and resumed
// sides of a checkpoint, which keeps the event queue's tie-breaking
// identical too.
func (e *Engine) relaunchDeferred() {
	ds := e.deferred
	e.deferred = e.deferred[:0]
	for _, m := range ds {
		e.workers[m].deferred = false
	}
	for _, m := range ds {
		e.launch(m)
	}
}

// --- the checkpoint format ---
//
// The engine state is carved into independent sections (snapshot.Container),
// so a delta carries only the ones whose encoding changed since the previous
// checkpoint. Sections appear in canonical ascending SectionID order and
// each one's encoding depends only on the frozen engine state, so the
// emitted bytes are identical whatever the encode pool size — a property
// the tests pin by comparing pool-of-1 and pool-of-N encodes.

// Section kinds. The numbers are on disk, and their order is the canonical
// container order. Adding a kind is one const here and one entry in
// sections.
const (
	secMeta       = 0 // scalars, RNG streams, armed timeline, deferred launches, shape of the rest
	secServerW    = 1 // server weight vector
	secBN         = 2 // global BN accumulator
	secStrategy   = 3 // StrategySnapshotter payload (present iff implemented)
	secRecChunk   = 4 // learning-curve points, chunked
	secWorker     = 5 // per-worker state, indexed by rank
	secTelMetrics = 6 // telemetry instrument registry (present iff a recorder is attached)
	secTelTrace   = 7 // telemetry trace events, chunked
)

// Chunk sizes of the two append-only lists. A full chunk is frozen forever,
// so only the last, growing chunk enters the deltas of a long run. The
// trace's is sized for its much higher event rate.
const (
	recChunkLen = 64
	telChunkLen = 256
)

// chunks is how many size-item chunks a list of n items is cut into, and
// chunkSpan the half-open item range of chunk i.
func chunks(n, size int) int { return (n + size - 1) / size }

func chunkSpan(n, size, i int) (lo, hi int) {
	return i * size, min((i+1)*size, n)
}

// section describes one kind of checkpoint section, both directions.
type section struct {
	kind uint32
	// count is how many sections of the kind the engine's state has now.
	// During restore the meta section has already sized what it depends on.
	count func(e *Engine) int
	// everyDelta marks a kind every delta holds without comparing: the small
	// ones that move at practically every barrier. Practically is not always
	// (SSGD's strategy state is empty at every barrier), and deltas on disk
	// hold these sections regardless, so it is part of the format.
	everyDelta bool
	// walk writes section i, or reads it into a freshly built and Setup
	// engine. Writing only reads engine state — the engine is quiescent at a
	// barrier — so any number may run concurrently. Read bytes are
	// untrusted: whatever would later index, size or schedule something is
	// checked as it is read.
	walk func(e *Engine, c snapshot.Codec, i int)
}

// Counts of the kinds that are not lists: always one, or one iff present.
func one(*Engine) int { return 1 }

func oneIf(present bool) int {
	if present {
		return 1
	}
	return 0
}

// sections is the checkpoint format: what a full container holds, in
// container order.
var sections = [...]section{
	{kind: secMeta, count: one, everyDelta: true, walk: walkMeta},
	{kind: secServerW, count: one, walk: func(e *Engine, c snapshot.Codec, _ int) { c.F64sInto(e.srv.w) }},
	{kind: secBN, count: one, walk: func(e *Engine, c snapshot.Codec, _ int) { e.srv.bnAcc.Walk(c) }},
	{
		kind: secStrategy,
		count: func(e *Engine) int {
			_, ok := e.strategy.(StrategySnapshotter)
			return oneIf(ok)
		},
		everyDelta: true,
		walk:       func(e *Engine, c snapshot.Codec, _ int) { e.strategy.(StrategySnapshotter).WalkState(e, c) },
	},
	{
		kind:  secRecChunk,
		count: func(e *Engine) int { return chunks(len(e.rec.points), recChunkLen) },
		walk:  walkPoints,
	},
	{kind: secWorker, count: func(e *Engine) int { return len(e.workers) }, walk: walkWorker},
	{
		kind:       secTelMetrics,
		count:      func(e *Engine) int { return oneIf(e.tel != nil) },
		everyDelta: true,
		walk:       func(e *Engine, c snapshot.Codec, _ int) { e.walkTelMetrics(c) },
	},
	{
		kind: secTelTrace,
		count: func(e *Engine) int {
			if e.tel == nil {
				return 0
			}
			return chunks(len(e.tel.rec.Events), telChunkLen)
		},
		walk: walkTrace,
	},
}

// walkMeta holds everything small that moves every barrier: clock, server
// scalars, RNG streams, run accounting, the armed scenario timeline, the
// deferred launches, and the presence flags and list lengths restore sizes
// the rest of the container with.
//
// A restore acts as it reads: the clock is set first, each armed event goes
// back on it the moment it has been validated — so the clock sees them in
// recorded order, before any deferred relaunch — and the curve and the trace
// are sized to the lengths the chunk sections will fill. The stall-guard
// counters scheduleScenarioEvent moves along the way are not meaningful
// until the worker flags are in; rebuildFleetCounters recomputes them once
// the walk is done.
func walkMeta(e *Engine, c snapshot.Codec, _ int) {
	reading := c.Reading()
	// ok is whether a restore may act on what it has read so far.
	ok := func() bool { return reading && c.Err() == nil }
	workers, now := len(e.workers), e.clock.Now()
	c.Int(&workers)
	c.F64(&now)
	c.F64(&e.srv.lrScale)
	c.Int(&e.srv.batches)
	c.Int(&e.srv.updates)
	if ok() {
		switch {
		case workers != len(e.workers):
			c.Fail(fmt.Errorf("checkpoint has %d workers, engine has %d", workers, len(e.workers)))
		case !(now >= 0): // NaN included
			c.Fail(fmt.Errorf("checkpoint barrier at virtual time %v", now))
		case e.srv.batches < 0 || e.srv.updates < 0:
			c.Fail(fmt.Errorf("checkpoint counts %d batches, %d updates", e.srv.batches, e.srv.updates))
		default:
			e.clock.RestoreNow(now)
		}
	}
	e.seedRng.Walk(c)
	e.sampler.Walk(c)
	c.Int(&e.stalenessSum)
	c.Int(&e.stalenessN)
	c.Int(&e.maxStale)
	c.Int(&e.scnApplied)
	c.Int(&e.rec.lastEpoch)
	// listLen walks the length of a list whose items take at least width
	// bytes each in their chunk sections: the container cannot hold more of
	// them than it has bytes for.
	listLen := func(n *int, what string, width int) {
		c.Int(n)
		if ok() && (*n < 0 || *n > e.ck.restoring/width) {
			c.Fail(fmt.Errorf("checkpoint of %d bytes promises %d %s", e.ck.restoring, *n, what))
		}
	}
	points := len(e.rec.points)
	listLen(&points, "curve points", 4*8)
	if ok() {
		e.rec.points = make([]Point, points)
	}

	// Armed scenario events, in arm order (ascending key). Re-arming them in
	// this order on resume reproduces the clock's FIFO tie-breaking: at the
	// barrier every armed event was scheduled before any deferred relaunch
	// will be.
	var ids []uint64
	if !reading {
		ids = slices.Sorted(maps.Keys(e.armed))
	}
	armed := len(ids)
	c.Len(&armed, 6*8)
	for k := 0; k < armed && c.Err() == nil; k++ {
		var ev scenario.Event
		if !reading {
			ev = e.armed[ids[k]]
		}
		c.F64(&ev.At)
		c.F64(&ev.Period)
		c.String((*string)(&ev.Kind))
		c.Int(&ev.Worker)
		c.F64(&ev.CompScale)
		c.F64(&ev.CommScale)
		if !ok() {
			continue
		}
		if err := ev.Validate(); err != nil {
			c.Fail(fmt.Errorf("checkpoint armed event: %w", err))
		} else if ev.Worker >= len(e.workers) || !(ev.At >= now) {
			c.Fail(fmt.Errorf("checkpoint armed event for worker %d of %d at t=%v, barrier at t=%v",
				ev.Worker, len(e.workers), ev.At, now))
		} else {
			e.scheduleScenarioEvent(ev)
		}
	}

	// Launches deferred by the drain.
	deferred := e.deferred
	c.Ints(&deferred)
	for i := 0; ok() && i < len(deferred); i++ {
		if m := deferred[i]; m < 0 || m >= len(e.workers) || e.workers[m].deferred {
			c.Fail(fmt.Errorf("checkpoint defers launch of worker %d of %d (or defers it twice)", m, len(e.workers)))
		} else {
			e.workers[m].deferred = true
			e.deferred = append(e.deferred, m)
		}
	}

	// present walks a presence flag, which a restore requires to be what
	// this engine was built with.
	present := func(what string, have bool) bool {
		got := have
		c.Bool(&got)
		if ok() && got != have {
			c.Fail(fmt.Errorf("checkpoint %s presence %v, engine expects %v", what, got, have))
		}
		return have && c.Err() == nil
	}
	if present("decentralized-state", e.dec != nil) {
		e.dec.sel.Stream().Walk(c)
	}
	_, hasStrategy := e.strategy.(StrategySnapshotter)
	present("strategy-state", hasStrategy)
	// A telemetry mismatch is not restorable: with a recorder attached the
	// resumed run's telemetry would be missing its prefix, silently breaking
	// the byte-identity contract. Callers fall back to a full rerun (the
	// trainer's resume path already does).
	if present("telemetry", e.tel != nil) {
		events := len(e.tel.rec.Events)
		listLen(&events, "trace events", 6*8)
		if ok() {
			e.tel.rec.Events = make([]telemetry.Event, events)
		}
	}
}

// walkWorker is worker m's section: batch iterator position, fleet
// membership and connectivity flags, staleness snapshot, recover-opt flag,
// and (decentralized runs) the worker's persistent model and commit
// counter. Worker replicas are deliberately absent: every strategy's Launch
// begins with Pull, which overwrites the replica's parameters and BN
// statistics, and the next forward refills its input batch, so at a
// quiescent boundary the iterator position is the only live replica state.
// A restore loads the flags as they come; the counters over them are
// rebuildFleetCounters' to derive once every worker is in.
func walkWorker(e *Engine, c snapshot.Codec, m int) {
	wk := &e.workers[m]
	wk.rep.iter.Walk(c)
	c.Bool(&wk.active)
	c.U64(&wk.gen)
	c.Bool(&wk.cut)
	c.Bool(&wk.parked)
	c.Int(&wk.snapUpdates)
	c.Bool(&wk.recoverPend)
	if e.dec != nil {
		c.F64sInto(wk.w)
		c.Int(&wk.iter)
	}
	// A worker pulled at some update the server has already applied.
	if s := wk.snapUpdates; c.Reading() && c.Err() == nil && (s < 0 || s > e.srv.updates) {
		c.Fail(fmt.Errorf("checkpoint worker %d pulled at update %d of %d", m, s, e.srv.updates))
	}
}

// chunkLen walks the item count of chunk i of a list of n items cut into
// size-item chunks; a restore requires the count walkMeta promised.
func chunkLen(c snapshot.Codec, what string, n, size, i int) (lo, hi int) {
	lo, hi = chunkSpan(n, size, i)
	got := hi - lo
	c.Int(&got)
	if c.Reading() && c.Err() == nil && got != hi-lo {
		c.Fail(fmt.Errorf("%s chunk %d has %d items, meta promises %d", what, i, got, hi-lo))
		return lo, lo
	}
	return lo, hi
}

// walkPoints is one chunk of the learning curve. walkMeta sized the curve,
// so a restored chunk fills its span in place.
func walkPoints(e *Engine, c snapshot.Codec, i int) {
	lo, hi := chunkLen(c, "curve", len(e.rec.points), recChunkLen, i)
	for j := lo; j < hi; j++ {
		p := &e.rec.points[j]
		c.Int(&p.Epoch)
		c.F64(&p.Time)
		c.F64(&p.TrainErr)
		c.F64(&p.TestErr)
	}
}

// walkTrace is one chunk of the telemetry trace, the same way.
func walkTrace(e *Engine, c snapshot.Codec, i int) {
	evs := e.tel.rec.Events
	lo, hi := chunkLen(c, "telemetry trace", len(evs), telChunkLen, i)
	for j := lo; j < hi; j++ {
		ev := &evs[j]
		kind, worker := uint64(ev.Kind), int64(ev.Worker)
		c.U64(&kind)
		c.I64(&worker)
		c.F64(&ev.At)
		c.F64(&ev.Dur)
		c.I64(&ev.A)
		c.I64(&ev.B)
		if c.Reading() {
			ev.Kind, ev.Worker = telemetry.Kind(kind), int32(worker)
		}
	}
}

// --- emit ---

// ckptPoolSize is a test hook: it forces the encode pool size (0 derives it
// from the shared core budget).
var ckptPoolSize int

// ckptBlob is one section as the previous checkpoint emitted it. Payloads are
// immutable once stored: a section that moved gets a fresh blob, never an
// in-place rewrite, so the writer goroutine can read them without
// synchronization.
type ckptBlob struct {
	payload []byte
	sum     uint32
}

// ckptDone is the writer goroutine's report: the emitted container's
// framing checksum (the next delta's BaseSum) or the sink error, plus the
// measured emission stats telemetry folds in at join time (on the event
// loop — the writer goroutine never touches the recorder).
type ckptDone struct {
	sum     uint32
	err     error
	full    bool
	bytes   int
	writeMs float64
}

// ckptEnc is the incremental checkpoint encoder: every section as last
// emitted, the delta-chain cursor (epoch and framing checksum of the previous
// emitted container), the write in flight, and one scratch writer per encode
// pool goroutine, kept across barriers so encoding a section that turns out
// not to have moved allocates nothing.
type ckptEnc struct {
	last      map[snapshot.SectionID]ckptBlob
	scratch   []*snapshot.Writer
	seq       int // checkpoint ordinal of the next emission
	sinceFull int // deltas emitted since the last full
	lastEpoch int // epoch of the previous emission; -1 forces the next to be full
	lastSum   uint32
	writer    offloop[ckptDone]
	restoring int // restore only: size of the container, the bound on the list lengths it promises
}

func newCkptEnc() *ckptEnc {
	return &ckptEnc{last: map[snapshot.SectionID]ckptBlob{}, lastEpoch: -1}
}

// joinWriter blocks until the checkpoint write in flight (if any) has
// committed, records its framing checksum as the next delta's base, and
// folds its measured stats into the meters. A sink error aborts the run
// here — the same contract a synchronous sink would have, just surfaced one
// barrier later.
func (e *Engine) joinWriter() {
	d, ok := e.ck.writer.join()
	if !ok {
		return
	}
	if d.err != nil {
		panic(fmt.Sprintf("ps: checkpoint sink: %v", d.err))
	}
	e.ck.lastSum = d.sum
	if e.tel != nil {
		e.tel.writeMs.Observe(d.writeMs)
		if d.full {
			e.tel.fullBytes.Observe(float64(d.bytes))
		} else {
			e.tel.delBytes.Observe(float64(d.bytes))
		}
	}
}

// encodePoolSize bounds the section-encode pool by GOMAXPROCS and the
// number of sections, with the test override winning outright. The bytes do
// not depend on it.
func encodePoolSize(n int) int {
	pool := runtime.GOMAXPROCS(0)
	if ckptPoolSize > 0 {
		pool = ckptPoolSize
	}
	return max(1, min(pool, n))
}

// emitCheckpoint runs at the quiescent point of a barrier (takeCheckpoint):
// join the previous write, decide full vs delta, encode every section in
// parallel, and hand the assembled container to a writer goroutine so the
// simulation resumes while the checkpoint encodes its framing and commits to
// the sink.
//
// What a delta holds is decided by the bytes, not by the sites that mutate
// state: a section is in it iff its encoding differs from the one the
// previous checkpoint emitted (or its kind is in every delta). A section
// whose state did not move encodes to the same bytes by construction —
// encodings read nothing but the frozen engine state — so no mutation site
// can leave a stale section behind, and the cost is one encode and compare
// per section per barrier, into a reused buffer.
func (e *Engine) emitCheckpoint() {
	ck := e.ck
	e.joinWriter()
	full := ck.lastEpoch < 0 || ck.sinceFull >= e.cfg.CheckpointFullEvery-1

	var encStart time.Time
	if e.tel != nil {
		encStart = time.Now()
	}
	// all is the full section list in container order, jobs beside it what
	// encodes each entry; moved marks the ones whose bytes differ from the
	// previous checkpoint's.
	type job struct {
		sec   *section
		i     int // index within the kind
		moved bool
	}
	var jobs []job
	var all []snapshot.Section
	for si := range sections {
		sec := &sections[si]
		for i, n := 0, sec.count(e); i < n; i++ {
			jobs = append(jobs, job{sec: sec, i: i})
			all = append(all, snapshot.Section{ID: snapshot.SectionID{Kind: sec.kind, Index: uint32(i)}})
		}
	}
	encode := func(w *snapshot.Writer, k int) {
		j, s := &jobs[k], &all[k]
		w.Reset()
		j.sec.walk(e, w.Codec(), j.i)
		if b, ok := ck.last[s.ID]; ok && bytes.Equal(b.payload, w.Bytes()) {
			s.Payload, s.Sum = b.payload, b.sum
			return
		}
		s.Payload = bytes.Clone(w.Bytes())
		s.Sum = snapshot.Checksum(s.Payload)
		j.moved = true
	}
	pool := encodePoolSize(len(all))
	for len(ck.scratch) < pool {
		ck.scratch = append(ck.scratch, snapshot.NewWriter())
	}
	if pool <= 1 {
		for k := range all {
			encode(ck.scratch[0], k)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for _, w := range ck.scratch[:pool] {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					k := int(next.Add(1)) - 1
					if k >= len(all) {
						return
					}
					encode(w, k)
				}
			}()
		}
		wg.Wait()
	}
	c := &snapshot.Container{Key: ConfigKey(e.cfg), Epoch: e.srv.epoch(), Seq: ck.seq, Sections: all}
	if !full {
		c.Kind = snapshot.KindDelta
		c.BaseEpoch = ck.lastEpoch
		c.BaseSum = ck.lastSum
		c.Sections = nil
	}
	for k, s := range all {
		if !jobs[k].moved {
			continue
		}
		if !jobs[k].sec.everyDelta { // never looked up, so never kept
			ck.last[s.ID] = ckptBlob{payload: s.Payload, sum: s.Sum}
		}
		if !full {
			c.Sections = append(c.Sections, s)
		}
	}
	if e.tel != nil {
		e.tel.encodeMs.Observe(float64(time.Since(encStart).Nanoseconds()) / 1e6)
	}

	hdr := Checkpoint{CkptMeta: snapshot.CkptMeta{
		Epoch:     e.srv.epoch(),
		Batches:   e.srv.batches,
		Updates:   e.srv.updates,
		VirtualMs: e.clock.Now(),
		Full:      full,
		BaseEpoch: c.BaseEpoch,
	}}
	sink := e.env.CheckpointSink
	ck.writer.start(func() ckptDone {
		start := time.Now()
		data, err := snapshot.EncodeContainer(c)
		if err == nil {
			hdr.Data = data
			err = sink(hdr)
		}
		return ckptDone{
			sum: c.Sum, err: err, full: full, bytes: len(data),
			writeMs: float64(time.Since(start).Nanoseconds()) / 1e6,
		}
	})

	ck.seq++
	ck.lastEpoch = hdr.Epoch
	if full {
		ck.sinceFull = 0
	} else {
		ck.sinceFull++
	}
}

// --- restore ---

// restore loads a full checkpoint container into a freshly built (and
// Setup) engine by walking it beside the sections table: both are in
// ascending SectionID order, so a missing, extra or misplaced section is the
// first mismatch. On success the engine is at the barrier's quiescent
// point: clock set, scenario events re-armed, deferred launches recorded
// but not yet re-armed (relaunchDeferred does that, mirroring the
// straight-through takeCheckpoint). On an error the engine is half-restored
// and must be dropped.
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
	e.ck.restoring = len(data)
	rest := c.Sections
	for si := range sections {
		sec := &sections[si]
		for i, n := 0, sec.count(e); i < n; i++ {
			id := snapshot.SectionID{Kind: sec.kind, Index: uint32(i)}
			if len(rest) == 0 || rest[0].ID != id {
				return fmt.Errorf("checkpoint has no section (%d,%d) where one belongs", id.Kind, id.Index)
			}
			r, err := snapshot.NewReader(rest[0].Payload)
			rest = rest[1:]
			if err != nil {
				return err
			}
			sec.walk(e, r.Codec(), i)
			if err := r.Close(); err != nil {
				return fmt.Errorf("checkpoint section (%d,%d): %w", id.Kind, id.Index, err)
			}
		}
	}
	if len(rest) > 0 {
		return fmt.Errorf("checkpoint has a section (%d,%d) this engine's state has no place for", rest[0].ID.Kind, rest[0].ID.Index)
	}

	e.rebuildFleetCounters()
	e.atBarrier()
	// The chain cursor stays at -1 — the first post-resume checkpoint is
	// forced full, because a delta would have to base on the materialized
	// container, which the store never held (it holds the original full +
	// deltas, whose framing checksums differ).
	e.ck.seq = c.Seq + 1
	return nil
}
