package ps

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"lcasgd/internal/telemetry"
)

// lcFinishSpy is LC-ASGD with a look at its roll-out slots as the run
// ends: how many roll-outs Finish found in flight.
type lcFinishSpy struct {
	*lcStrategy
	unanswered int
}

func (f *lcFinishSpy) Finish(e *Engine, res *Result) {
	for m := range f.pushes {
		if f.pushes[m].job.busy {
			f.unanswered++
		}
	}
	f.lcStrategy.Finish(e, res)
}

// TestLCASGDRolloutJoinedOnEveryPath runs LC-ASGD at M = 64 under
// randomized churn on both backends, traced and untraced, at GOMAXPROCS 1
// and at the default, and checks the off-loop loss roll-out's joins:
//
//   - every run gives the same result bits, and every traced run the same
//     trace;
//   - some roll-out was orphaned by a crash and joined by its worker's next
//     push;
//   - when Run returns no roll-out is in flight: every slot is idle;
//   - every push is answered by exactly one compensate instant, traced by
//     the commit that applies the scale (the next event is that worker's
//     commit or drop) at the push's time (after the worker's launch, before
//     its commit), unless it was orphaned or the budget ran out on it.
func TestLCASGDRolloutJoinedOnEveryPath(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var first Result
	var firstTrace []telemetry.Event
	runs := 0
	for _, procs := range []int{1, runtime.GOMAXPROCS(0)} {
		runtime.GOMAXPROCS(procs)
		for _, kind := range []BackendKind{BackendSequential, BackendConcurrent} {
			for _, traced := range []bool{false, true} {
				label := fmt.Sprintf("GOMAXPROCS=%d/%s/traced=%v", procs, kind, traced)
				env := randomizedEnv(LCASGD, 64, 24, 3, 120, 24)
				env.Cfg = env.Cfg.withDefaults()
				env.Cfg.Backend = kind
				var rec *telemetry.Recorder
				if traced {
					rec = telemetry.NewRecorder()
					env.Telemetry = rec
				}
				st := &lcFinishSpy{lcStrategy: &lcStrategy{}}
				res := newEngine(env, st).run()
				if runs == 0 {
					first = res
				} else {
					assertResultsEqual(t, label, first, res)
				}
				runs++
				t.Logf("%s: %d updates, %d pushes, %d orphaned, %d left at the end", label, res.Updates, st.lossPred.Calls, st.orphans, st.unanswered)
				if st.orphans == 0 {
					t.Fatalf("%s: no roll-out was orphaned by a crash; the churn no longer reaches the drain", label)
				}
				for m := range st.pushes {
					if st.pushes[m].job.busy {
						t.Fatalf("%s: worker %d's roll-out still in flight after Run", label, m)
					}
				}
				if !traced {
					continue
				}
				if firstTrace == nil {
					firstTrace = rec.Events
				} else if !slices.Equal(firstTrace, rec.Events) {
					t.Fatalf("%s: the trace differs from the first traced run's", label)
				}
				answered := checkCompensateAtPush(t, label, rec.Events)
				pushes := st.lossPred.Calls
				if answered+st.orphans+st.unanswered != pushes {
					t.Fatalf("%s: %d compensate instants + %d orphaned + %d left at the end, want the %d pushes",
						label, answered, st.orphans, st.unanswered, pushes)
				}
			}
		}
	}
}

// checkCompensateAtPush checks that every compensate instant in the trace
// is followed at once by its worker's commit or drop and lies strictly
// between that worker's launch and the commit, and returns how many there
// are.
func checkCompensateAtPush(t *testing.T, label string, evs []telemetry.Event) int {
	t.Helper()
	launched := map[int32]float64{}
	n := 0
	for i, ev := range evs {
		switch ev.Kind {
		case telemetry.KLaunch:
			launched[ev.Worker] = ev.At
		case telemetry.KCompensate:
			n++
			if i+1 == len(evs) {
				t.Fatalf("%s: compensate %+v ends the trace", label, ev)
			}
			next := evs[i+1]
			var commitAt float64
			switch next.Kind {
			case telemetry.KCommit:
				commitAt = next.At + next.Dur
			case telemetry.KDrop:
				commitAt = next.At
			default:
				t.Fatalf("%s: compensate %+v is followed by %v, not its commit", label, ev, next.Kind)
			}
			if next.Worker != ev.Worker {
				t.Fatalf("%s: compensate %+v is followed by worker %d's %v", label, ev, next.Worker, next.Kind)
			}
			if launch := launched[ev.Worker]; !(launch < ev.At && ev.At < commitAt) {
				t.Fatalf("%s: compensate %+v not at its push: launch at %v, commit at %v", label, ev, launch, commitAt)
			}
		}
	}
	if n == 0 {
		t.Fatalf("%s: no compensate instant traced", label)
	}
	return n
}
