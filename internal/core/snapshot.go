package core

import (
	"fmt"
	"maps"
	"slices"

	"lcasgd/internal/snapshot"
)

// This file threads the snapshot codec through the server-side state the
// paper's algorithms accumulate across iterations: the iter delivery log,
// both online-trained LSTM predictors, and the global BN statistics. Each
// type walks exactly the state that influences future computation (or
// appears in the final Result, like the predictor traces); wall-clock
// overhead counters (TrainTime etc.) are excluded — they measure the host
// machine, not the run.

// Walk walks the delivery log; a restore rebuilds the per-worker last-seen
// index.
func (l *IterLog) Walk(c snapshot.Codec) {
	c.Ints(&l.seq)
	if c.Reading() && c.Err() == nil {
		l.lastSeen = make(map[int]int, 16)
		for i, m := range l.seq {
			l.lastSeen[m] = i
		}
	}
}

// walkTrace walks a predictor trace series. A restored empty trace is nil,
// like a predictor that has not traced yet, not an empty slice.
func walkTrace(c snapshot.Codec, tr *[]TracePoint) {
	n := len(*tr)
	c.Len(&n, 3*8)
	if c.Reading() && c.Err() == nil {
		*tr = nil
		if n > 0 {
			*tr = make([]TracePoint, n)
		}
	}
	for i := range *tr {
		tp := &(*tr)[i]
		c.Int(&tp.Iteration)
		c.F64(&tp.Actual)
		c.F64(&tp.Predicted)
	}
}

// Walk walks the loss predictor: LSTM weights and window, the last observed
// loss, the pre-computed one-step forecast, and the trace recorded so far
// (the trace is part of the final Result, so a resumed run must reproduce it
// in full). It restores into a freshly-built predictor of the same hidden
// size.
func (p *LossPredictor) Walk(c snapshot.Codec) {
	if !c.Reading() {
		p.forecast()
	}
	p.net.Walk(c)
	c.F64(&p.lastLoss)
	c.Bool(&p.seeded)
	c.F64(&p.nextPred)
	p.stale = false
	c.Int(&p.iteration)
	walkTrace(c, &p.trace)
}

// Walk walks the step predictor: LSTM weights and window, the per-worker
// feature memory (in ascending worker order — map iteration order must not
// leak into the stream), the running normalization scales, and the trace.
// A restore wants what a writing walk emits: ranks ascending, each a worker
// of the fleet, with a feature row of the network's input width; anything
// else would make the next ObserveAndPredict panic.
func (p *StepPredictor) Walk(c snapshot.Codec) {
	reading := c.Reading()
	p.net.Walk(c)
	workers := p.workers
	c.Int(&workers)
	if reading && c.Err() == nil && workers != p.workers {
		c.Fail(fmt.Errorf("core: step predictor snapshot for %d workers, have %d", workers, p.workers))
		return
	}
	var ranks []int
	if !reading {
		ranks = slices.Sorted(maps.Keys(p.lastFeat))
	}
	n := len(ranks)
	c.Len(&n, 2*8) // an entry is a rank and a length prefix at the least
	if reading && c.Err() == nil {
		p.lastFeat = make(map[int][]float64, n)
	}
	prev := -1
	for i := 0; i < n && c.Err() == nil; i++ {
		var m int
		var feat []float64
		if !reading {
			m = ranks[i]
			feat = p.lastFeat[m]
		}
		c.Int(&m)
		c.F64s(&feat)
		switch {
		case !reading || c.Err() != nil:
		case m <= prev || m >= p.workers:
			c.Fail(fmt.Errorf("core: step predictor feature row for worker %d after %d, fleet of %d", m, prev, p.workers))
		case len(feat) != len(p.feat):
			c.Fail(fmt.Errorf("core: step predictor feature row of width %d, want %d", len(feat), len(p.feat)))
		default:
			p.lastFeat[m] = feat
			prev = m
		}
	}
	c.F64(&p.commScale)
	c.F64(&p.compScale)
	c.Int(&p.calls)
	walkTrace(c, &p.trace)
}

// Walk walks the global BN statistics a layer at a time, restoring into an
// accumulator of the identical layer shape.
func (a *BNAccumulator) Walk(c snapshot.Codec) {
	layers := len(a.chans)
	c.Int(&layers)
	if c.Reading() && c.Err() == nil && layers != len(a.chans) {
		c.Fail(fmt.Errorf("core: BN snapshot has %d layers, accumulator has %d", layers, len(a.chans)))
		return
	}
	off := 0
	for _, n := range a.chans {
		c.F64sInto(a.Mean[off : off+n])
		c.F64sInto(a.Var[off : off+n])
		off += n
	}
}

// Clone deep-copies the accumulator — the engine keeps a clone of the
// last checkpoint's statistics so a recovered worker can optionally restart
// from them (Config.RecoverOpt) instead of the live server state.
func (a *BNAccumulator) Clone() *BNAccumulator {
	return &BNAccumulator{Mode: a.Mode, Decay: a.Decay, Mean: slices.Clone(a.Mean), Var: slices.Clone(a.Var), chans: a.chans}
}

// CopyFrom overwrites a's statistics with src's, reusing a's buffers — the
// allocation-free refresh of a Clone taken earlier from the same
// accumulator (the recorder's frozen copy, once per curve point).
func (a *BNAccumulator) CopyFrom(src *BNAccumulator) {
	copy(a.Mean, src.Mean)
	copy(a.Var, src.Var)
}
