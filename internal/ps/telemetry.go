package ps

import (
	"fmt"
	"slices"

	"lcasgd/internal/scenario"
	"lcasgd/internal/snapshot"
	"lcasgd/internal/telemetry"
)

// This file threads the telemetry layer (internal/telemetry) through the
// engine. Two invariants govern every hook:
//
//   - Zero overhead when disabled. The engine holds one nullable pointer
//     (Engine.tel), and every emission site is one call to its nil-safe
//     emit, so the commit/gossip hot paths stay at 0 allocs/op — pinned by
//     TestCommitZeroAllocSteadyState and BenchmarkTelemetryOverhead.
//
//   - Determinism. Every event and deterministic instrument derives from
//     event-loop state and virtual time only, so equivalent runs record the
//     same bytes. The trace and the gauge series are serialized into
//     checkpoints (the last two rows of the sections table); the
//     event-counting instruments are a fold of the trace, taken once where
//     every run ends (telFinish), so a resumed run's final telemetry bytes
//     equal the uninterrupted run's. Wall-clock checkpoint costs go to the
//     recorder's measured meters, which are excluded from both the
//     byte-identity contract and the checkpoint.

// telState is the engine's telemetry extension: the recorder plus the
// engine-registered instruments. Nil when no recorder is attached.
type telState struct {
	rec *telemetry.Recorder

	// Event counts, folded from the trace by fold.
	staleness *telemetry.Histogram
	drainMs   *telemetry.Histogram
	compScale *telemetry.Histogram
	commits   *telemetry.WorkerVec
	drops     *telemetry.WorkerVec
	gossips   *telemetry.WorkerVec
	scnEvents *telemetry.Counter
	barriers  *telemetry.Counter

	// Depth gauges, sampled by telSample.
	inflightG *telemetry.Gauge
	activeG   *telemetry.Gauge
	cutG      *telemetry.Gauge
	pendingG  *telemetry.Gauge
}

// newTelState binds the recorder to this run and registers the engine's
// instruments in their fixed order: the dump's order, and for the gauges the
// order of every checkpointed series row, so part of the on-disk format.
func newTelState(rec *telemetry.Recorder, workers int) *telState {
	rec.Bind()
	m := rec.Metrics
	return &telState{
		rec:       rec,
		staleness: m.Histogram("staleness", []float64{0, 1, 2, 4, 8, 16, 32, 64, 128}),
		drainMs:   m.Histogram("barrier_drain_ms", []float64{1, 2.5, 5, 10, 25, 50, 100, 250, 1000}),
		// The scale lies in [core.MinScale, core.MaxScale] = [0.1, 1]: the
		// first bucket counts pushes at the floor, the +Inf one those at
		// the ceiling.
		compScale: m.Histogram("compensation_scale", []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.999999}),
		commits:   m.WorkerVec("commits_per_worker", workers),
		drops:     m.WorkerVec("partition_drops_per_worker", workers),
		gossips:   m.WorkerVec("gossips_per_worker", workers),
		scnEvents: m.Counter("scenario_events_applied"),
		barriers:  m.Counter("checkpoint_barriers"),
		inflightG: m.Gauge("inflight_events"),
		activeG:   m.Gauge("active_workers"),
		cutG:      m.Gauge("cut_workers"),
		pendingG:  m.Gauge("clock_pending"),
	}
}

// emit appends one engine transition to the trace; without a recorder it
// does nothing. The trace is the one record of what happened: the counts
// are folded from it when the run ends.
func (t *telState) emit(ev telemetry.Event) {
	if t != nil {
		t.rec.Emit(ev)
	}
}

// fold counts the whole trace into the instruments it feeds. It runs once
// per run, into the zero counts the instruments were registered with. A
// restore has checked that every per-worker event names a worker of the
// fleet (walkTrace).
func (t *telState) fold() {
	for _, ev := range t.rec.Events {
		switch ev.Kind {
		case telemetry.KCommit:
			t.commits.Inc(int(ev.Worker))
			t.staleness.Observe(float64(ev.A))
		case telemetry.KDrop:
			t.drops.Inc(int(ev.Worker))
		case telemetry.KGossip:
			t.gossips.Inc(int(ev.Worker))
			if ev.A >= 0 { // a worker that stepped alone sampled no lag
				t.staleness.Observe(float64(ev.B))
			}
		case telemetry.KCrash, telemetry.KRecover, telemetry.KJoin, telemetry.KLeave,
			telemetry.KPartition, telemetry.KHeal, telemetry.KPhaseShift:
			t.scnEvents.Inc()
		case telemetry.KBarrier:
			t.drainMs.Observe(ev.Dur)
			t.barriers.Inc()
		case telemetry.KCompensate:
			t.compScale.Observe(float64(ev.B) / 1e6)
		}
	}
}

// telFinish completes the run's telemetry where every run ends, straight
// through or resumed: one final gauge row at the run's end state — both
// sides take it at the same quiescent end, so the series stays
// byte-identical across a resume — and the counts folded from the trace.
func (e *Engine) telFinish() {
	if e.tel != nil {
		e.telSample()
		e.tel.fold()
	}
}

// recordCurve wraps the recorder's epoch-boundary check and, when a new
// curve point was started, snapshots the queue/fleet gauges into the
// metrics series at the same boundary — so the series rows line up with the
// learning curve one-to-one. The row is taken here, on the loop, at the
// boundary's state; the point's errors arrive later from the evaluator.
func (e *Engine) recordCurve() {
	if e.rec.maybeRecord(e.srv, e.clock.Now(), false) {
		e.telSample()
	}
}

// telSample captures the engine's depth gauges and appends a series row.
func (e *Engine) telSample() {
	t := e.tel
	if t == nil {
		return
	}
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
	if !e.quiescing {
		e.drainStart = e.clock.Now()
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
	e.tel.emit(telemetry.Event{Kind: k, Worker: int32(ev.Worker), At: e.clock.Now(), A: a, B: b})
}

// telBarrier records the barrier-drain span and the checkpoint instant at
// the quiescent point — before the snapshot serializes, so both events are
// inside the checkpoint and a resumed run replays them rather than
// re-observing them.
func (e *Engine) telBarrier() {
	now := e.clock.Now()
	e.tel.emit(telemetry.Event{Kind: telemetry.KBarrier, Worker: -1, At: e.drainStart, Dur: now - e.drainStart})
	e.tel.emit(telemetry.Event{Kind: telemetry.KCheckpoint, Worker: -1, At: now, A: int64(e.srv.epoch())})
}

// walkTelSeries walks the gauge series, the one part of the registry the
// trace does not fold to: each row's epoch and virtual time, then exactly
// one value per registered gauge. A restore refuses a row whose time or
// value no run records (badReading).
func walkTelSeries(e *Engine, c snapshot.Codec, _ int) {
	m := e.tel.rec.Metrics
	n := len(m.Series)
	c.Len(&n, (3+len(m.Gauges))*8) // two words, a length prefix and the values
	if c.Reading() && c.Err() == nil {
		m.Series = make([]telemetry.Sample, n)
		for i := range m.Series {
			m.Series[i].Values = make([]float64, len(m.Gauges))
		}
	}
	for i := range m.Series {
		s := &m.Series[i]
		c.Int(&s.Epoch)
		c.F64(&s.AtMs)
		c.F64sInto(s.Values)
		if c.Reading() && c.Err() == nil && (badReading(s.AtMs) || slices.ContainsFunc(s.Values, badReading)) {
			c.Fail(fmt.Errorf("checkpoint gauge row %d: at %v, values %v", i, s.AtMs, s.Values))
		}
	}
}
