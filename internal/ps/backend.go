package ps

import (
	"fmt"
	"runtime"
	"sync"

	"lcasgd/internal/tensor"
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
//     concurrently. A task must touch only that worker's private state.
//   - All shared state (server weights, BN accumulator, predictors, cost
//     sampler, the recorder's points) is read and written exclusively on
//     the event loop, after wait() has returned for every task whose output
//     is consumed. The one goroutine beside the loop and the lanes is the
//     recorder's evaluator (eval.go): it reads a frozen copy of (w, BN) the
//     loop took at the boundary, owns the evaluation net pool, and hands
//     its two error rates back through a channel the loop drains.
//   - ParallelFor is for data-parallel side work (evaluation shards) whose
//     combination is order-independent. It is called from the evaluator
//     goroutine, concurrently with Dispatch on the loop, so it must not
//     depend on loop-owned backend state.
type Backend interface {
	// Kind names the backend.
	Kind() BackendKind
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

func (seqBackend) Kind() BackendKind { return BackendSequential }

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
// no locks needed on the hot path.
type concBackend struct {
	lanes  []chan func()
	wg     sync.WaitGroup
	prevMM int
}

func newConcBackend(workers int) *concBackend {
	par := runtime.GOMAXPROCS(0)
	if par < 1 {
		par = 1
	}
	b := &concBackend{lanes: make([]chan func(), workers)}
	// The tensor kernels fan large matmuls across GOMAXPROCS goroutines on
	// their own. With worker lanes providing the parallelism, that nesting
	// would oversubscribe the cores (up to workers × GOMAXPROCS runnable
	// goroutines), so cap the per-matmul fan-out to the share of cores a
	// lane can actually claim. Results are unaffected: the matmul row-block
	// partitioning is bit-reproducible at any parallelism. The cap is a
	// process-global, so concurrent-backend runs serialize on concRunMu for
	// their whole lifetime — overlapping them would thrash the cores anyway.
	concRunMu.Lock()
	b.prevMM = tensor.SetMatmulParallelism(par / workers)
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

func (b *concBackend) Kind() BackendKind { return BackendConcurrent }

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

// Parallelism reports the lane count, not GOMAXPROCS: data-parallel work
// sized by it then composes with the per-matmul fan-out cap set at
// construction (lanes × cap ≤ cores) instead of multiplying past it.
func (b *concBackend) Parallelism() int { return len(b.lanes) }

// Close drains the lanes: in-flight tasks finish (they only touch worker
// state, so late completions are harmless) and the lane goroutines exit.
// The tensor kernels' own parallelism is restored once the lanes are gone.
func (b *concBackend) Close() {
	for _, ch := range b.lanes {
		close(ch)
	}
	b.wg.Wait()
	tensor.SetMatmulParallelism(b.prevMM)
	concRunMu.Unlock()
}

// concRunMu serializes concurrent-backend runs: each owns the process-wide
// matmul-parallelism cap from construction to Close. A sequential-backend
// run overlapping a concurrent one is memory-safe (the cap is atomic) but
// computes under the concurrent run's reduced per-matmul fan-out; callers
// wanting full kernel parallelism should not overlap the two.
var concRunMu sync.Mutex
