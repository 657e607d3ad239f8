package core

import (
	"fmt"
	"sort"

	"lcasgd/internal/snapshot"
)

// This file threads the snapshot codec through the server-side state the
// paper's algorithms accumulate across iterations: the iter delivery log,
// both online-trained LSTM predictors, and the global BN statistics. Each
// type serializes exactly the state that influences future computation (or
// appears in the final Result, like the predictor traces); wall-clock
// overhead counters (TrainTime etc.) are excluded — they measure the host
// machine, not the run.

// SnapshotTo serializes the delivery log.
func (l *IterLog) SnapshotTo(w *snapshot.Writer) {
	w.Ints(l.seq)
}

// RestoreFrom loads a delivery log written by SnapshotTo, rebuilding the
// per-worker last-seen index.
func (l *IterLog) RestoreFrom(r *snapshot.Reader) error {
	seq := r.Ints()
	if r.Err() != nil {
		return r.Err()
	}
	l.seq = seq
	l.lastSeen = make(map[int]int, 16)
	for i, m := range seq {
		l.lastSeen[m] = i
	}
	return nil
}

// writeTrace / readTrace serialize a predictor trace series.
func writeTrace(w *snapshot.Writer, tr []TracePoint) {
	w.Int(len(tr))
	for _, tp := range tr {
		w.Int(tp.Iteration)
		w.F64(tp.Actual)
		w.F64(tp.Predicted)
	}
}

func readTrace(r *snapshot.Reader) []TracePoint {
	n := r.Count(3 * 8)
	if n == 0 {
		return nil // like a predictor that has not traced yet, not an empty slice
	}
	tr := make([]TracePoint, n)
	for i := range tr {
		tr[i] = TracePoint{Iteration: r.Int(), Actual: r.F64(), Predicted: r.F64()}
	}
	return tr
}

// SnapshotTo serializes the loss predictor: LSTM weights and window, the
// last observed loss, the pre-computed one-step forecast, and the trace
// recorded so far (the trace is part of the final Result, so a resumed run
// must reproduce it in full).
func (p *LossPredictor) SnapshotTo(w *snapshot.Writer) {
	p.net.SnapshotTo(w)
	w.F64(p.lastLoss)
	w.Bool(p.seeded)
	w.F64(p.nextPred)
	w.Int(p.iteration)
	writeTrace(w, p.trace)
}

// RestoreFrom loads a loss predictor written by SnapshotTo into a
// freshly-built predictor of the same hidden size.
func (p *LossPredictor) RestoreFrom(r *snapshot.Reader) error {
	if err := p.net.RestoreFrom(r); err != nil {
		return err
	}
	p.lastLoss = r.F64()
	p.seeded = r.Bool()
	p.nextPred = r.F64()
	p.iteration = r.Int()
	p.trace = readTrace(r)
	return r.Err()
}

// SnapshotTo serializes the step predictor: LSTM weights and window, the
// per-worker feature memory (in sorted worker order — map iteration order
// must not leak into the stream), the running normalization scales, and the
// trace.
func (p *StepPredictor) SnapshotTo(w *snapshot.Writer) {
	p.net.SnapshotTo(w)
	w.Int(p.workers)
	workers := make([]int, 0, len(p.lastFeat))
	for m := range p.lastFeat {
		workers = append(workers, m)
	}
	sort.Ints(workers)
	w.Int(len(workers))
	for _, m := range workers {
		w.Int(m)
		w.F64s(p.lastFeat[m])
	}
	w.F64(p.commScale)
	w.F64(p.compScale)
	w.Int(p.calls)
	writeTrace(w, p.trace)
}

// RestoreFrom loads a step predictor written by SnapshotTo.
func (p *StepPredictor) RestoreFrom(r *snapshot.Reader) error {
	if err := p.net.RestoreFrom(r); err != nil {
		return err
	}
	if workers := r.Int(); r.Err() == nil && workers != p.workers {
		r.Fail(fmt.Errorf("core: step predictor snapshot for %d workers, have %d", workers, p.workers))
		return r.Err()
	}
	// An entry is a rank and a length prefix at the least. SnapshotTo writes
	// ranks ascending, each a worker of the fleet, with a feature row of the
	// network's input width; anything else would make the next
	// ObserveAndPredict panic.
	n := r.Count(2 * 8)
	p.lastFeat = make(map[int][]float64, n)
	prev := -1
	for i := 0; i < n && r.Err() == nil; i++ {
		m := r.Int()
		feat := r.F64s()
		switch {
		case r.Err() != nil:
		case m <= prev || m >= p.workers:
			r.Fail(fmt.Errorf("core: step predictor feature row for worker %d after %d, fleet of %d", m, prev, p.workers))
		case len(feat) != len(p.feat):
			r.Fail(fmt.Errorf("core: step predictor feature row of width %d, want %d", len(feat), len(p.feat)))
		default:
			p.lastFeat[m] = feat
			prev = m
		}
	}
	p.commScale = r.F64()
	p.compScale = r.F64()
	p.calls = r.Int()
	p.trace = readTrace(r)
	return r.Err()
}

// SnapshotTo serializes the global BN statistics.
func (a *BNAccumulator) SnapshotTo(w *snapshot.Writer) {
	w.Int(len(a.mean))
	for li := range a.mean {
		w.F64s(a.mean[li])
		w.F64s(a.vari[li])
	}
}

// RestoreFrom loads statistics written by SnapshotTo into an accumulator of
// the identical layer shape.
func (a *BNAccumulator) RestoreFrom(r *snapshot.Reader) error {
	if layers := r.Int(); r.Err() == nil && layers != len(a.mean) {
		r.Fail(fmt.Errorf("core: BN snapshot has %d layers, accumulator has %d", layers, len(a.mean)))
		return r.Err()
	}
	for li := range a.mean {
		r.F64sInto(a.mean[li])
		r.F64sInto(a.vari[li])
	}
	return r.Err()
}

// Clone deep-copies the accumulator — the engine keeps a clone of the
// last checkpoint's statistics so a recovered worker can optionally restart
// from them (Config.RecoverOpt) instead of the live server state.
func (a *BNAccumulator) Clone() *BNAccumulator {
	c := &BNAccumulator{Mode: a.Mode, Decay: a.Decay}
	c.mean, c.vari = a.Snapshot()
	return c
}

// CopyFrom overwrites a's statistics with src's, reusing a's buffers — the
// allocation-free refresh of a Clone taken earlier from the same
// accumulator (the recorder's frozen copy, once per curve point).
func (a *BNAccumulator) CopyFrom(src *BNAccumulator) {
	for li := range a.mean {
		copy(a.mean[li], src.mean[li])
		copy(a.vari[li], src.vari[li])
	}
}
