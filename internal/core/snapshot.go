package core

import (
	"fmt"
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

// Walk walks the delivery log: the count, then every worker's last
// position. A restore wants a position per worker of the fleet, each before
// the count.
func (l *IterLog) Walk(c snapshot.Codec) {
	last := l.last
	c.Int(&l.n)
	c.Ints(&last)
	if !c.Reading() || c.Err() != nil {
		return
	}
	if len(last) != len(l.last) {
		c.Fail(fmt.Errorf("core: iter log snapshot for %d workers, have %d", len(last), len(l.last)))
		return
	}
	for m, at := range last {
		if at < -1 || at >= l.n {
			c.Fail(fmt.Errorf("core: iter log puts worker %d at delivery %d of %d", m, at, l.n))
			return
		}
	}
	l.last = last
}

// walkTrace walks a predictor trace series: each point's actual and
// predicted value. Iteration is not walked: a restore sets it to the
// point's index plus first. A restored empty trace is nil, like a predictor
// that has not traced yet, not an empty slice.
func walkTrace(c snapshot.Codec, tr *[]TracePoint, first int) {
	n := len(*tr)
	c.Len(&n, 2*8)
	if c.Reading() && c.Err() == nil {
		*tr = nil
		if n > 0 {
			*tr = make([]TracePoint, n)
		}
	}
	for i := range *tr {
		tp := &(*tr)[i]
		c.F64(&tp.Actual)
		c.F64(&tp.Predicted)
		if c.Reading() {
			tp.Iteration = first + i
		}
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
	walkTrace(c, &p.trace, 1)
}

// Walk walks the step predictor: LSTM weights and window, the per-worker
// feature memory and which workers it holds a row for, the running
// normalization scales, and the trace. Both per-worker vectors have a
// length fixed by the fleet size, which a restore requires.
func (p *StepPredictor) Walk(c snapshot.Codec) {
	p.net.Walk(c)
	c.F64sInto(p.lastFeat)
	n := len(p.seen)
	c.Len(&n, 8)
	if c.Reading() && c.Err() == nil && n != len(p.seen) {
		c.Fail(fmt.Errorf("core: step predictor snapshot for %d workers, have %d", n, len(p.seen)))
		return
	}
	for m := range p.seen {
		c.Bool(&p.seen[m])
	}
	c.F64(&p.commScale)
	c.F64(&p.compScale)
	walkTrace(c, &p.trace, 0)
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
