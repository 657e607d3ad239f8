package ps

import (
	"fmt"

	"lcasgd/internal/scenario"
	"lcasgd/internal/snapshot"
	"lcasgd/internal/telemetry"
)

// This file threads the telemetry layer (internal/telemetry) through the
// engine. Two invariants govern every hook:
//
//   - Zero overhead when disabled. The engine holds one nullable pointer
//     (Engine.tel) and every emission site is an `if e.tel != nil` branch,
//     so the commit/gossip hot paths stay at 0 allocs/op — pinned by
//     TestCommitZeroAllocSteadyState and BenchmarkTelemetryOverhead.
//
//   - Determinism. Every event and deterministic instrument derives from
//     event-loop state and virtual time only, and the whole telemetry state
//     (registry + trace) is serialized into checkpoints (the last two rows
//     of the sections table), so a resumed run's final telemetry bytes
//     equal the uninterrupted run's. Wall-clock checkpoint costs go to the
//     recorder's measured meters, which are excluded from both the
//     byte-identity contract and the checkpoint.

// telState is the engine's telemetry extension: the recorder plus the
// engine-registered instruments and span bookkeeping. Nil when no recorder
// is attached.
type telState struct {
	rec *telemetry.Recorder

	// drainStart is when the current barrier drain armed (quiescing 0→1).
	drainStart float64

	// Deterministic instruments.
	staleness *telemetry.Histogram
	drainMs   *telemetry.Histogram
	commits   *telemetry.WorkerVec
	drops     *telemetry.WorkerVec
	gossips   *telemetry.WorkerVec
	scnEvents *telemetry.Counter
	barriers  *telemetry.Counter
	inflightG *telemetry.Gauge
	activeG   *telemetry.Gauge
	cutG      *telemetry.Gauge
	pendingG  *telemetry.Gauge

	// Measured (wall-clock / emission-policy) meters: not deterministic,
	// not checkpointed, dumped under a separate "measured" key.
	encodeMs  *telemetry.Meter
	writeMs   *telemetry.Meter
	fullBytes *telemetry.Meter
	delBytes  *telemetry.Meter
}

// newTelState binds the recorder to this run and registers the engine's
// instruments in their fixed order — the order is the checkpoint
// serialization order, so it is part of the on-disk format.
func newTelState(rec *telemetry.Recorder, workers int) *telState {
	rec.Bind()
	m := rec.Metrics
	return &telState{
		rec:       rec,
		staleness: m.Histogram("staleness", []float64{0, 1, 2, 4, 8, 16, 32, 64, 128}),
		drainMs:   m.Histogram("barrier_drain_ms", []float64{1, 2.5, 5, 10, 25, 50, 100, 250, 1000}),
		commits:   m.WorkerVec("commits_per_worker", workers),
		drops:     m.WorkerVec("partition_drops_per_worker", workers),
		gossips:   m.WorkerVec("gossips_per_worker", workers),
		scnEvents: m.Counter("scenario_events_applied"),
		barriers:  m.Counter("checkpoint_barriers"),
		inflightG: m.Gauge("inflight_events"),
		activeG:   m.Gauge("active_workers"),
		cutG:      m.Gauge("cut_workers"),
		pendingG:  m.Gauge("clock_pending"),
		encodeMs:  rec.Meter("ckpt_section_encode_wall_ms"),
		writeMs:   rec.Meter("ckpt_container_write_wall_ms"),
		fullBytes: rec.Meter("ckpt_full_bytes"),
		delBytes:  rec.Meter("ckpt_delta_bytes"),
	}
}

// recordCurve wraps the recorder's epoch-boundary check and, when a new
// curve point was started, snapshots the queue/fleet gauges into the
// metrics series at the same boundary — so the series rows line up with the
// learning curve one-to-one. The row is taken here, on the loop, at the
// boundary's state; the point's errors arrive later from the evaluator.
func (e *Engine) recordCurve() {
	if e.rec.maybeRecord(e.srv, e.clock.Now(), false) && e.tel != nil {
		e.telSample()
	}
}

// telSample captures the engine's depth gauges and appends a series row.
func (e *Engine) telSample() {
	t := e.tel
	t.inflightG.Set(float64(e.inflight))
	t.activeG.Set(float64(e.activeN))
	t.cutG.Set(float64(e.cutN))
	t.pendingG.Set(float64(e.clock.Pending()))
	t.rec.Metrics.Sample(e.srv.epoch(), e.clock.Now())
}

// armQuiesce arms the checkpoint-barrier drain after a server update
// crossed the barrier epoch, stamping the drain's start exactly once per
// barrier (commits keep landing while the drain is in progress).
func (e *Engine) armQuiesce() {
	if e.tel != nil && !e.quiescing {
		e.tel.drainStart = e.clock.Now()
	}
	e.quiescing = true
}

// telScenarioEvent traces one applied (non-redundant) timeline event.
func (e *Engine) telScenarioEvent(ev scenario.Event) {
	var k telemetry.Kind
	var a, b int64
	switch ev.Kind {
	case scenario.PhaseShift:
		k = telemetry.KPhaseShift
		a = int64(ev.CompScale * 1e6)
		b = int64(ev.CommScale * 1e6)
	case scenario.Crash:
		k = telemetry.KCrash
	case scenario.Recover:
		k = telemetry.KRecover
	case scenario.Join:
		k = telemetry.KJoin
	case scenario.Leave:
		k = telemetry.KLeave
	case scenario.Partition:
		k = telemetry.KPartition
	case scenario.Heal:
		k = telemetry.KHeal
	default:
		return
	}
	e.tel.scnEvents.Inc()
	e.tel.rec.Emit(telemetry.Event{Kind: k, Worker: int32(ev.Worker), At: e.clock.Now(), A: a, B: b})
}

// telBarrier records the barrier-drain span and the checkpoint instant at
// the quiescent point — before the snapshot serializes, so both events (and
// the histogram/counter they feed) are inside the checkpoint and a resumed
// run replays them rather than re-observing them.
func (e *Engine) telBarrier() {
	t := e.tel
	now := e.clock.Now()
	dur := now - t.drainStart
	t.drainMs.Observe(dur)
	t.barriers.Inc()
	t.rec.Emit(telemetry.Event{Kind: telemetry.KBarrier, Worker: -1, At: t.drainStart, Dur: dur})
	t.rec.Emit(telemetry.Event{Kind: telemetry.KCheckpoint, Worker: -1, At: now, A: int64(e.srv.epoch())})
}

// --- checkpoint serialization of the instrument registry ---
//
// (The trace rides the checkpoint in chunks; see the sections table in
// checkpoint.go.)

// walkTelMetrics walks the deterministic instrument registry. Instrument
// names are included and a restore checks them, and the shapes, by
// position: a mismatch means the checkpoint was written by an engine with a
// different registration order, which must fail loudly rather than restore
// values into the wrong instruments.
func (e *Engine) walkTelMetrics(c snapshot.Codec) {
	m := e.tel.rec.Metrics
	group := func(what string, have int) {
		n := have
		c.Int(&n)
		if c.Reading() && c.Err() == nil && n != have {
			c.Fail(fmt.Errorf("telemetry snapshot has %d %s, engine registers %d", n, what, have))
		}
	}
	name := func(have string) {
		got := have
		c.String(&got)
		if c.Reading() && c.Err() == nil && got != have {
			c.Fail(fmt.Errorf("telemetry instrument %q, engine expects %q", got, have))
		}
	}
	slots := func(dst []uint64, owner string) {
		v := dst
		c.U64s(&v)
		if c.Reading() && c.Err() == nil {
			if len(v) != len(dst) {
				c.Fail(fmt.Errorf("telemetry instrument %q has %d slots, engine expects %d", owner, len(v), len(dst)))
			}
			copy(dst, v)
		}
	}
	group("counters", len(m.Counters))
	for _, ct := range m.Counters {
		name(ct.Name)
		c.U64(&ct.V)
	}
	group("gauges", len(m.Gauges))
	for _, g := range m.Gauges {
		name(g.Name)
		c.F64(&g.V)
	}
	group("histograms", len(m.Hists))
	for _, h := range m.Hists {
		name(h.Name)
		slots(h.Counts, h.Name)
		c.U64(&h.Total)
		c.F64(&h.Sum)
	}
	group("worker vectors", len(m.Vecs))
	for _, v := range m.Vecs {
		name(v.Name)
		slots(v.N, v.Name)
	}
	n := len(m.Series)
	c.Len(&n, 3*8) // a row is two words and a length prefix at the least
	if c.Reading() && c.Err() == nil {
		m.Series = append(m.Series[:0], make([]telemetry.Sample, n)...)
	}
	for i := range m.Series {
		s := &m.Series[i]
		c.Int(&s.Epoch)
		c.F64(&s.AtMs)
		c.F64s(&s.Values)
	}
}
