package ps

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"testing"

	"lcasgd/internal/scenario"
)

// fleetLCGolden is the sha256 of fleetLCDump for an LC-ASGD run shaped like
// bench/'s fleet_scale cell at M = 256. Its loss roll-outs run up to 255
// steps, and 294 of its 3172 roll-outs settle, so the absorbed update of
// lstm.Network.PredictAhead serves 46541 of their 428917 steps: a path that
// TestFingerprint's M = 4 runs (k ≈ 3) never reach. The hash is the one the
// run gives with every roll-out step run through the cells.
const fleetLCGolden = "a88f7ee82423bae464cbc6b9e66b3834e649453edc547dd72203f78549fca87a"

// fleetLCDump writes the float bits of everything an LC-ASGD run returns.
func fleetLCDump(res Result) []byte {
	var b []byte
	b = fmt.Appendf(b, "updates=%d virtual=%x maxstale=%d meanstale=%x events=%d\n",
		res.Updates, res.VirtualMs, res.MaxStaleness, res.MeanStaleness, res.ScenarioEvents)
	b = fmt.Appendf(b, "final train=%x test=%x iter=%x\n", res.FinalTrainErr, res.FinalTestErr, res.AvgIterVirtualMs)
	for i, p := range res.Points {
		b = fmt.Appendf(b, "pt%d epoch=%d t=%x tr=%x te=%x\n", i, p.Epoch, p.Time, p.TrainErr, p.TestErr)
	}
	for i, tp := range res.LossTrace {
		b = fmt.Appendf(b, "lt%d %d %x %x\n", i, tp.Iteration, tp.Actual, tp.Predicted)
	}
	for i, tp := range res.StepTrace {
		b = fmt.Appendf(b, "st%d %d %x %x\n", i, tp.Iteration, tp.Actual, tp.Predicted)
	}
	return b
}

// TestFleetLCASGDGolden pins the float bits of an M = 256 LC-ASGD run on
// the fleet_scale task (H = 8 predictors, churn from a randomized timeline,
// six iterations per worker, seed 3) to a committed hash, on amd64 only,
// like TestFingerprint.
func TestFleetLCASGDGolden(t *testing.T) {
	const m, iters, seed = 256, 6, 3
	scn := scenario.Randomized(seed, m, iters*1000, m/8)
	env := fleetScaleEnv(LCASGD, m, &scn)
	env.Cfg.Epochs, env.Cfg.Seed = m*iters, seed
	res := Run(env)
	if len(res.LossTrace) == 0 {
		t.Fatal("LC-ASGD run recorded no loss trace")
	}
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden is checked on amd64 only, this is %s", runtime.GOARCH)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(fleetLCDump(res))); got != fleetLCGolden {
		t.Fatalf("fleet LC-ASGD hash %s, want %s: the run's float bits changed", got, fleetLCGolden)
	}
}
