package ps

import (
	"sort"

	"lcasgd/internal/snapshot"
)

// ssgdStrategy is synchronous distributed SGD (Formula 1): every round the
// fleet computes gradients on the same weight snapshot, the server averages
// them and applies one update. The synchronization barrier means each round
// lasts as long as the slowest worker — the convergence-speed penalty
// visible in Figures 4 and 6 — and each round consumes one batch per
// participant, so larger fleets mean fewer updates per epoch (the
// effective-batch-size growth the paper blames for SSGD's accuracy loss).
//
// On the engine, a round is one Launch per active worker at the same
// virtual instant (so every replica snapshots identical weights) and as
// many arrival events; the barrier exit is the last arrival, which on the
// event queue is the max over participants of the round-trip-plus-compute
// time. The barrier is fleet-churn-aware: a worker retired mid-round
// (scenario crash or leave) is dropped from the outstanding set — its
// arrival event is already cancelled — and the round closes over whoever
// actually arrived; a worker admitted mid-round parks in pending and joins
// at the next round boundary, since it could not have pulled the round's
// snapshot.
type ssgdStrategy struct {
	inRound bool
	roundAt float64      // virtual time the current round's snapshots were pulled
	members map[int]bool // launched into the round, arrival still outstanding
	arrived []int
	pending []int // admitted mid-round, start at the next boundary
	restart []int // closeRound's relaunch scratch (arrivals + parked admits)
	waits   []func()
	avg     []float64
}

func (*ssgdStrategy) Algo() Algo { return SSGD }

func (s *ssgdStrategy) Setup(e *Engine) {
	// Linear learning-rate scaling (Goyal et al. 2017): one SSGD round
	// consumes M batches but applies a single averaged update, so under the
	// reproduction's scaled-down epoch budget SSGD would receive M× fewer
	// update steps than the paper's full-scale budget affords it. Scaling γ
	// by M makes each round equivalent to summing the M worker gradients,
	// preserving SSGD's paper-reported mild (not catastrophic) degradation.
	// The scale is fixed at the configured fleet size; elastic scenarios
	// that shrink the fleet keep it, exactly as a statically-tuned LR would
	// behave on a real cluster that loses nodes.
	e.SetLRScale(float64(e.Workers()))
	s.members = make(map[int]bool, e.Workers())
	s.waits = make([]func(), e.Workers())
	s.avg = make([]float64, e.NParams())
}

func (s *ssgdStrategy) Launch(e *Engine, m int) {
	if s.inRound && e.Now() != s.roundAt {
		// A round is already collecting arrivals; this worker (a mid-round
		// admit) waits for the next boundary.
		s.pending = append(s.pending, m)
		return
	}
	if !s.inRound {
		s.inRound = true
		s.roundAt = e.Now()
	}
	if s.members[m] {
		// Already launched into the round forming at this instant. Reachable
		// when a worker crashes after arriving and recovers before the round
		// closes: closeRound's restart list then names it twice (once as an
		// arrival, once as a parked admit), and the second launch must not
		// dispatch a duplicate iteration.
		return
	}
	s.members[m] = true
	e.Pull(m)
	s.waits[m] = e.DispatchGradient(m)
	// Round trip plus compute; the barrier takes the max over participants.
	dur := e.CommSample(m) + e.CompSample(m) + e.CommSample(m)
	e.AfterWorker(m, dur, func() { s.arrive(e, m) })
}

// arrive counts a worker into the barrier; the last outstanding arrival
// closes the round.
func (s *ssgdStrategy) arrive(e *Engine, m int) {
	if !s.members[m] {
		// Every arrival event pairs with exactly one membership insertion
		// (Launch refuses duplicates, retirement cancels the event with the
		// membership). A stray arrival means that invariant broke; corrupting
		// the barrier silently would poison every later round.
		panic("ps: SSGD arrival from a worker not in the round")
	}
	delete(s.members, m)
	s.arrived = append(s.arrived, m)
	if len(s.members) == 0 {
		s.closeRound(e)
	}
}

// closeRound averages the arrived gradients, folds BN statistics in rank
// order (so under BNReplace the last rank wins, as in the monolithic
// runner), applies the single update charged with one batch per arrival,
// and restarts the fleet — the arrivals plus any workers admitted
// mid-round. A round whose every participant was retired before arriving
// applies nothing; pending admits still restart, forming the next round.
func (s *ssgdStrategy) closeRound(e *Engine) {
	s.inRound = false
	arr := s.arrived
	sort.Ints(arr)
	if len(arr) > 0 {
		for i := range s.avg {
			s.avg[i] = 0
		}
		// Partitioned arrivals computed but cannot reach the server: their
		// gradients and statistics are dropped from the fold and their
		// batches consume no budget, exactly like a per-worker Commit drop.
		// Their waits still drain — the compute happened.
		contrib := 0
		for _, m := range arr {
			s.waits[m]()
			if e.Partitioned(m) {
				continue
			}
			for i, g := range e.Gradient(m) {
				s.avg[i] += g
			}
			e.FoldStats(m)
			contrib++
		}
		if contrib > 0 {
			inv := 1 / float64(contrib)
			for i := range s.avg {
				s.avg[i] *= inv
			}
			e.Apply(s.avg, contrib)
		}
	}
	// Relaunch the arrivals plus parked admits from a reused scratch; the
	// arrived/pending slices are recycled for the next round (the arrival
	// events that refill them fire strictly after this call returns).
	s.restart = s.restart[:0]
	s.restart = append(s.restart, arr...)
	s.restart = append(s.restart, s.pending...)
	s.arrived = s.arrived[:0]
	s.pending = s.pending[:0]
	sort.Ints(s.restart)
	for _, m := range s.restart {
		e.Relaunch(m)
	}
}

// WorkerRetired shrinks the barrier when a participant crashes or leaves
// mid-round: its arrival event is already cancelled, so the round must stop
// waiting for it — and close immediately if it was the last one
// outstanding. A retired mid-round admit just leaves the pending list.
func (s *ssgdStrategy) WorkerRetired(e *Engine, m int) {
	// Swap-remove: pending order is irrelevant (closeRound sorts the
	// restart list before relaunching), so no need to splice.
	for i, p := range s.pending {
		if p == m {
			s.pending[i] = s.pending[len(s.pending)-1]
			s.pending = s.pending[:len(s.pending)-1]
			break
		}
	}
	if !s.members[m] {
		return
	}
	delete(s.members, m)
	if s.inRound && len(s.members) == 0 {
		s.closeRound(e)
	}
}

func (*ssgdStrategy) Finish(*Engine, *Result) {}

// WalkState walks nothing: every piece of the barrier bookkeeping is
// provably empty at a quiescent checkpoint boundary — the round in progress
// when the barrier epoch was crossed is the round whose Apply armed the
// drain, and closeRound cleared members/arrived/pending before the drain
// could complete. The assertion turns a violated invariant into a loud
// failure instead of a silently truncated round.
func (s *ssgdStrategy) WalkState(*Engine, snapshot.Codec) {
	if s.inRound || len(s.members) != 0 || len(s.arrived) != 0 || len(s.pending) != 0 {
		panic("ps: SSGD checkpoint outside a quiescent round boundary")
	}
}
