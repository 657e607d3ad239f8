package ps

import (
	"fmt"
	"runtime"
	"sync"
)

// BackendKind selects how worker-local compute is executed.
type BackendKind string

const (
	// BackendSequential runs every worker compute task inline on the event
	// loop — the seed's deterministic simulator. (Curve-point evaluation
	// runs beside the loop on either backend, see eval.go.)
	BackendSequential BackendKind = "sequential"
	// BackendConcurrent fans worker forward/backward passes across
	// goroutines (one lane per worker) while the event loop keeps committing
	// server updates in simulated-clock order, so results stay bit-identical
	// to BackendSequential while wall-clock time drops on multi-core.
	BackendConcurrent BackendKind = "concurrent"
)

// Backend executes worker-local compute (forward/backward passes, batched
// evaluation) on behalf of the engine's event loop. The contract that makes
// concurrency safe and bit-exact:
//
//   - Dispatch may only be called from the event loop. Tasks for the same
//     worker run in dispatch order; tasks for different workers may run
//     concurrently. A task must touch only that worker's private state and
//     the executor it took from the engine's pool (whose free list is the
//     one shared structure tasks touch, under its mutex).
//   - All shared state (server weights, BN accumulator, predictors, cost
//     sampler, the recorder's points) is read and written exclusively on
//     the event loop, after wait() has returned for every task whose output
//     is consumed. Beside the loop and the lanes run the engine's off-loop
//     jobs (offloop, engine.go), each on a copy the loop froze for it and
//     joined by the loop before anything reads its result: the recorder's
//     evaluator (eval.go) reads a frozen (w, BN) on executors from the same
//     pool and hands back its two error rates; the checkpoint writer frames
//     encoded sections; and LC-ASGD's loss roll-outs (lcasgd.go), one per
//     worker, each continue a copy of the loss predictor's stack primed at
//     the push and are joined by the commit.
//   - ParallelFor is for data-parallel side work (evaluation shards) whose
//     combination is order-independent. It is called from the evaluator
//     goroutine, concurrently with Dispatch on the loop, so it must not
//     depend on loop-owned backend state.
type Backend interface {
	// Dispatch schedules task on worker m's lane and returns a wait function
	// that blocks until the task has completed.
	Dispatch(m int, task func()) (wait func())
	// ParallelFor runs body(0) … body(n-1), possibly concurrently, and
	// returns when all have completed.
	ParallelFor(n int, body func(i int))
	// Parallelism is the number of compute lanes the backend can keep busy;
	// callers use it to size data-parallel work.
	Parallelism() int
	// Close releases backend resources. No Dispatch/ParallelFor may follow.
	Close()
}

// newBackend constructs the backend for a run; an empty kind means
// sequential, preserving the seed's default behavior.
func newBackend(kind BackendKind, workers int) Backend {
	switch kind {
	case "", BackendSequential:
		return seqBackend{}
	case BackendConcurrent:
		return newConcBackend(workers)
	default:
		panic(fmt.Sprintf("ps: unknown backend %q", kind))
	}
}

// seqBackend executes everything inline on the caller's goroutine.
type seqBackend struct{}

func (seqBackend) Dispatch(_ int, task func()) func() {
	task()
	return func() {}
}

func (seqBackend) ParallelFor(n int, body func(int)) {
	for i := 0; i < n; i++ {
		body(i)
	}
}

func (seqBackend) Parallelism() int { return 1 }

func (seqBackend) Close() {}

// concBackend runs one long-lived goroutine lane per worker. The channel
// send in Dispatch happens-before the task runs, and the close of the done
// channel happens-before wait returns, so the event loop's writes to a
// replica are visible to its lane and the lane's results are visible back —
// no locks on the hot path beyond the executor pool's.
type concBackend struct {
	lanes []chan func()
	wg    sync.WaitGroup
}

func newConcBackend(workers int) *concBackend {
	b := &concBackend{lanes: make([]chan func(), workers)}
	for i := range b.lanes {
		ch := make(chan func(), 2)
		b.lanes[i] = ch
		b.wg.Add(1)
		go func() {
			defer b.wg.Done()
			for task := range ch {
				task()
			}
		}()
	}
	return b
}

func (b *concBackend) Dispatch(m int, task func()) func() {
	done := make(chan struct{})
	b.lanes[m] <- func() {
		task()
		close(done)
	}
	return func() { <-done }
}

func (b *concBackend) ParallelFor(n int, body func(int)) {
	if n <= 1 {
		for i := 0; i < n; i++ {
			body(i)
		}
		return
	}
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			body(i)
		}(i)
	}
	wg.Wait()
}

// Parallelism is the lane count capped at the core count: its one caller
// runs an executor per evaluation shard, and shards beyond the cores add
// memory, not throughput.
func (b *concBackend) Parallelism() int { return min(len(b.lanes), runtime.GOMAXPROCS(0)) }

// Close drains the lanes: in-flight tasks finish (they only touch worker
// state, so late completions are harmless) and the lane goroutines exit.
func (b *concBackend) Close() {
	for _, ch := range b.lanes {
		close(ch)
	}
	b.wg.Wait()
}
