package ps

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"runtime"
	"testing"

	"lcasgd/internal/scenario"
)

// fingerprintGolden is the sha256 of the dump below. The dump is a pure
// function of the code: any change to it means some result's float bits
// moved, which every refactor and kernel change since PR 1 has promised not
// to do. A change that moves them on purpose updates the golden in the same
// commit and says why.
const fingerprintGolden = "f861c1b277ed3946a8174e5299e693e02c6fd2b49221aaafcc7dc67c83a5bd2c"

// TestFingerprint dumps the exact float bits of every algorithm's results
// (both backends, stationary + scenarios, an MLP and a conv net) and checks
// the dump's hash against the committed golden, so a change is proven
// numerically invisible by tier-1 itself. The golden is checked on amd64
// only: other architectures may fuse multiply-adds, which moves low bits
// without anything being wrong. FINGERPRINT=path additionally writes the
// dump there, for diffing against another commit's.
func TestFingerprint(t *testing.T) {
	f := &bytes.Buffer{}
	dump := func(label string, env Env) {
		res := Run(env)
		fmt.Fprintf(f, "== %s ==\n", label)
		fmt.Fprintf(f, "updates=%d virtual=%x maxstale=%d meanstale=%x events=%d\n",
			res.Updates, res.VirtualMs, res.MaxStaleness, res.MeanStaleness, res.ScenarioEvents)
		fmt.Fprintf(f, "final train=%x test=%x\n", res.FinalTrainErr, res.FinalTestErr)
		for i, p := range res.Points {
			fmt.Fprintf(f, "pt%d epoch=%d t=%x tr=%x te=%x\n", i, p.Epoch, p.Time, p.TrainErr, p.TestErr)
		}
		for i, tp := range res.LossTrace {
			fmt.Fprintf(f, "lt%d %d %x %x\n", i, tp.Iteration, tp.Actual, tp.Predicted)
		}
		for i, tp := range res.StepTrace {
			fmt.Fprintf(f, "st%d %d %x %x\n", i, tp.Iteration, tp.Actual, tp.Predicted)
		}
	}
	scns := append([]*scenario.Scenario{nil}, equivalenceScenarios()...)
	for _, algo := range allAlgos {
		for _, kind := range []BackendKind{BackendSequential, BackendConcurrent} {
			for _, scn := range scns {
				m := 4
				if algo == SGD {
					m = 1
				}
				env := tinyEnvSeeded(algo, m, 2)
				env.Cfg.Backend = kind
				name := "none"
				if scn != nil {
					env.Cfg.Scenario = scn
					name = scn.Name
				}
				dump(fmt.Sprintf("%s/%s/%s", algo, kind, name), env)
			}
		}
	}
	// Partitioned + DC-ASGD exercises remaining paths.
	env := tinyEnvSeeded(DCASGD, 4, 2)
	env.Cfg.Partitioned = true
	dump("DC-ASGD/partitioned", env)
	// A conv/BN/residual/pool model exercises the whole layer zoo.
	for _, algo := range []Algo{LCASGD, SSGD} {
		env := convEnvSeeded(algo, 3, 2)
		dump(fmt.Sprintf("%s/convnet", algo), env)
	}
	if path := os.Getenv("FINGERPRINT"); path != "" {
		if err := os.WriteFile(path, f.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden is checked on amd64 only, this is %s", runtime.GOARCH)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(f.Bytes())); got != fingerprintGolden {
		t.Fatalf("fingerprint %s, want %s: some result's float bits changed "+
			"(FINGERPRINT=path writes the dump; diff it against the parent commit's)", got, fingerprintGolden)
	}
}
