// heterogeneous_cluster demonstrates the volatile-delay scenario the
// paper's introduction motivates: a fleet whose odd-ranked workers compute
// four times slower than the even-ranked ones, with the slow half and the
// fast half trading places every few hundred virtual milliseconds. It runs
// LC-ASGD on the concurrent backend (one goroutine lane per worker) and
// scores the step predictor's forecasts against the staleness each gradient
// really met, beside the same run on a homogeneous fleet.
//
//	go run ./examples/heterogeneous_cluster
package main

import (
	"fmt"
	"math"

	"lcasgd/internal/core"
	"lcasgd/internal/ps"
	"lcasgd/internal/scenario"
	"lcasgd/internal/trainer"
)

const (
	workers = 8
	slow    = 4.0   // computation-time multiplier of the slow half
	swapMs  = 600.0 // virtual ms between role swaps
)

// fastSlow is the timeline: at t=0 the odd ranks turn slow; every swapMs the
// halves trade places. Each worker gets a pair of periodic phase shifts, one
// per role, offset by half the 2·swapMs cycle.
func fastSlow() *scenario.Scenario {
	s := &scenario.Scenario{Name: "fast-slow"}
	for m := 0; m < workers; m++ {
		slowAt, fastAt := 0.0, swapMs
		if m%2 == 0 {
			slowAt, fastAt = swapMs, 2*swapMs
		}
		s.Events = append(s.Events,
			scenario.Event{At: slowAt, Period: 2 * swapMs, Kind: scenario.PhaseShift, Worker: m, CompScale: slow, CommScale: 1},
			scenario.Event{At: fastAt, Period: 2 * swapMs, Kind: scenario.PhaseShift, Worker: m, CompScale: 1, CommScale: 1},
		)
	}
	return s
}

// stepMAE is the step predictor's mean absolute error over the second half
// of its trace, after the online LSTM has warmed up.
func stepMAE(trace []core.TracePoint) (mae float64, n int) {
	for _, tp := range trace[len(trace)/2:] {
		mae += math.Abs(tp.Actual - tp.Predicted)
		n++
	}
	return mae / float64(max(n, 1)), n
}

func main() {
	profile := trainer.QuickCIFAR()
	profile.Epochs = 8
	profile.Backend = ps.BackendConcurrent

	fmt.Printf("LC-ASGD on %d concurrent worker lanes; the slow half computes %.0f× slower, roles swap every %.0f virtual ms\n\n",
		workers, slow, swapMs)
	fmt.Printf("%-14s %-12s %-15s %-14s %s\n", "fleet", "test err %", "mean staleness", "max staleness", "step-predictor MAE")
	for _, scn := range []*scenario.Scenario{nil, fastSlow()} {
		name := "homogeneous"
		profile.Scenario = scn
		if scn != nil {
			name = scn.Name
		}
		res := trainer.RunCell(profile, ps.LCASGD, workers, core.BNAsync, 1)
		mae, n := stepMAE(res.StepTrace)
		fmt.Printf("%-14s %-12.2f %-15.2f %-14d %.2f steps over %d forecasts\n",
			name, res.FinalTestErr*100, res.MeanStaleness, res.MaxStaleness, mae, n)
	}
	fmt.Println()
	fmt.Println("Both fleets average a staleness near M-1, but the fast/slow split spreads it:")
	fmt.Println("a slow worker's gradient meets several times the updates a fast one's does,")
	fmt.Println("and each swap moves every worker to the other population. That volatility is")
	fmt.Println("what the step predictor's error measures: it forecasts from each worker's last")
	fmt.Println("computation time, which a swap has just made wrong.")
}
