package trainer

import (
	"runtime"
	"testing"

	"lcasgd/internal/core"
	"lcasgd/internal/ps"
)

// Seeded gate of the reproduction verdict (DESIGN.md "What this reproduction
// finds"): on the quick CIFAR profile at M = 4, LC-ASGD ends behind ASGD in
// training error and takes more virtual time for the same epochs. Measured
// over seeds 1…16: behind at 14 of 16 seeds (mean Δ +0.77 points), more
// virtual time at all 16. The tolerance is a sign count: under a fair coin
// (no ordering) at least 12 of 16 comes up 3.8 % of the time.
const (
	verdictSeeds     = 16
	verdictMinBehind = 12
)

// TestReproductionVerdictGate runs ASGD and LC-ASGD at every seed as one
// sweep and asserts the ordering: LC-ASGD's FinalTrainErr above ASGD's at
// verdictMinBehind seeds or more, the mean paired difference above zero, and
// LC-ASGD's VirtualMs above ASGD's at every seed.
func TestReproductionVerdictGate(t *testing.T) {
	if testing.Short() {
		t.Skip("32 quick-CIFAR cells")
	}
	p := QuickCIFAR()
	p.Jobs = runtime.GOMAXPROCS(0)
	var cfgs []ps.Config
	for s := uint64(1); s <= verdictSeeds; s++ {
		cfgs = append(cfgs,
			cellConfig(p, ps.ASGD, 4, core.BNAsync, s),
			cellConfig(p, ps.LCASGD, 4, core.BNAsync, s))
	}
	res := runCells(p, cfgs)
	behind, slower, sum := 0, 0, 0.0
	for i := range verdictSeeds {
		asgd, lc := res[2*i], res[2*i+1]
		d := lc.FinalTrainErr - asgd.FinalTrainErr
		sum += d
		if d > 0 {
			behind++
		}
		if lc.VirtualMs > asgd.VirtualMs {
			slower++
		} else {
			t.Errorf("seed %d: LC-ASGD %.1f virtual ms, ASGD %.1f", i+1, lc.VirtualMs, asgd.VirtualMs)
		}
	}
	mean := sum / verdictSeeds
	t.Logf("%d seeds: LC-ASGD behind ASGD in training error at %d (mean Δ %+.2f points), more virtual time at %d",
		verdictSeeds, behind, 100*mean, slower)
	if behind < verdictMinBehind {
		t.Errorf("LC-ASGD behind ASGD in training error at %d of %d seeds, want at least %d", behind, verdictSeeds, verdictMinBehind)
	}
	if !(mean > 0) {
		t.Errorf("mean paired training-error Δ %+.4f, want > 0", mean)
	}
}
