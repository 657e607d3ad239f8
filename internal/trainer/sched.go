package trainer

import (
	"sync"
	"time"

	"lcasgd/internal/ps"
)

// The sweep scheduler: an experiment sweep (Fig2/Fig3Panel/Fig5Panel/Table1
// and the robustness grid) is a list of ps.Configs, dozens to hundreds of
// independent cells, and runCells runs it — inline with Profile.Jobs <= 1,
// on at most Jobs goroutines otherwise. Determinism is preserved by
// construction:
//
//   - Each cell is a pure function of its ps.Config (the simulator is
//     deterministic and datasets are generated from the config), so running
//     cells concurrently cannot change any cell's result — only the order
//     results become available.
//   - Sweeps list cells in their classic nested order and fold the results
//     by position, so tables, curves and persisted store artifacts are
//     byte-identical to a -jobs 1 run.
//   - Goroutines take cells in list order and a failure stops them taking
//     more, so the cells that started are a prefix of the list. The panic re-raised, as itself, is that of the
//     lowest-indexed failing cell — for a failure that is a function of the
//     config, the one an inline run would have died in.
//
// The runner owns nothing process-wide: its cells are goroutines, and so are
// the concurrent backend's lanes inside each cell, so Jobs > 1 composes with
// either backend and the Go scheduler multiplexes cells × lanes on
// GOMAXPROCS.

// runCells runs every cell of a sweep and returns the results in cfgs
// order. Each cell's ps.ConfigKey is derived once and names it to
// telemetry, the store and Profile.Progress, which is called after every
// completed cell against len(cfgs).
func runCells(p Profile, cfgs []ps.Config) []ps.Result {
	n := len(cfgs)
	res := make([]ps.Result, n)
	start := time.Now()
	var (
		mu      sync.Mutex // guards everything below and serializes Progress
		next    int        // the next cell a goroutine takes
		done    int
		failAt  = n // lowest failing cell, n while none has failed
		failVal any
	)
	runOne := func(i int) {
		key := ps.ConfigKey(cfgs[i])
		res[i] = runConfig(p, cfgs[i], key)
		if p.Progress != nil {
			mu.Lock()
			done++
			p.Progress(done, n, time.Since(start), key)
			mu.Unlock()
		}
	}
	if p.Jobs <= 1 {
		// No goroutine and no recover: a cell's panic leaves from here.
		for i := range cfgs {
			runOne(i)
		}
		return res
	}
	var wg sync.WaitGroup
	for range min(p.Jobs, n) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				stop := i >= n || failAt < n
				mu.Unlock()
				if stop {
					return
				}
				func() {
					defer func() {
						if v := recover(); v != nil {
							mu.Lock()
							if i < failAt {
								failAt, failVal = i, v
							}
							mu.Unlock()
						}
					}()
					runOne(i)
				}()
			}
		}()
	}
	wg.Wait()
	if failAt < n {
		panic(failVal)
	}
	return res
}
