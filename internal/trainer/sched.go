package trainer

import (
	"fmt"
	"sync"
	"time"

	"lcasgd/internal/ps"
)

// The sweep scheduler: experiment sweeps (Fig2/Fig3Panel/Fig5Panel/Table1
// and the robustness grid) are dozens to hundreds of independent cells, and
// with Profile.Jobs > 1 they run on a bounded worker pool instead of
// strictly in sequence. Determinism is preserved by construction:
//
//   - Each cell is already a pure function of its ps.Config (the simulator
//     is deterministic and datasets are generated from the config), so
//     running cells concurrently cannot change any cell's result — only
//     the order results become available.
//   - Sweeps submit cells in exactly the order the old sequential loops ran
//     them and assemble results in submission order, so tables, curves and
//     persisted store artifacts are byte-identical to a -jobs 1 run.
//   - With Jobs <= 1 submit() runs the cell inline at submission time — the
//     scheduler degenerates to the old sequential loops, not to a
//     one-worker pool, so a sequential sweep has no goroutine in the loop.
//
// A pool owns nothing process-wide: pooled cells are goroutines, and so are
// the concurrent backend's lanes inside each cell, so Jobs > 1 composes with
// either backend and the Go scheduler multiplexes cells × lanes on
// GOMAXPROCS.

// cellPool runs sweep cells on at most jobs goroutines.
type cellPool struct {
	jobs int
	sem  chan struct{}

	// Progress accounting (Profile.Progress): completions are counted under
	// progMu because pooled cells finish on worker goroutines; the callback
	// runs under the same lock, so sinks need no synchronization.
	progress  func(done, total int, elapsed time.Duration, key string)
	started   time.Time
	progMu    sync.Mutex
	submitted int
	completed int
}

// newPool sizes a pool from the profile. Jobs <= 1 yields the inline
// (sequential) pool.
func newPool(p Profile) *cellPool {
	jobs := max(p.Jobs, 1)
	return &cellPool{jobs: jobs, sem: make(chan struct{}, jobs), progress: p.Progress, started: time.Now()}
}

// cellDone counts a completed cell and emits a progress report naming it by
// config key. The total is the number of cells submitted so far: sweeps
// submit their whole grid before the first pooled cell can finish, so
// pooled reports show the true denominator, while inline (Jobs <= 1)
// reports grow it as the sweep walks its loops — either way the line says
// how far along the sweep is.
func (cp *cellPool) cellDone(key string) {
	if cp.progress == nil {
		return
	}
	cp.progMu.Lock()
	cp.completed++
	cp.progress(cp.completed, cp.submitted, time.Since(cp.started), key)
	cp.progMu.Unlock()
}

// cellFuture is the handle for one submitted cell.
type cellFuture struct {
	done chan struct{}
	res  ps.Result
	pan  any
}

// submit schedules fn under the cell's config key (progress reporting names
// completed cells by it). Sequential pools run fn inline — submission order
// IS execution order, exactly the old loops. Pooled submission runs fn on a
// goroutine gated by the jobs semaphore; a panic inside fn (e.g. an
// experiment-store failure) is captured and re-raised from wait, so a
// failing cell still aborts the sweep like it did sequentially.
func (cp *cellPool) submit(key string, fn func() ps.Result) *cellFuture {
	f := &cellFuture{done: make(chan struct{})}
	cp.progMu.Lock()
	cp.submitted++
	cp.progMu.Unlock()
	if cp.jobs <= 1 {
		// No recover here: a sequential sweep propagates a cell panic from
		// the submission site immediately, exactly like the old loops.
		f.res = fn()
		close(f.done)
		cp.cellDone(key)
		return f
	}
	go func() {
		cp.sem <- struct{}{}
		defer func() {
			f.pan = recover()
			<-cp.sem
			close(f.done)
			cp.cellDone(key)
		}()
		f.res = fn()
	}()
	return f
}

// wait blocks for the cell and returns its result, re-raising any panic the
// cell died with.
func (f *cellFuture) wait() ps.Result {
	<-f.done
	if f.pan != nil {
		panic(fmt.Sprintf("trainer: sweep cell failed: %v", f.pan))
	}
	return f.res
}
