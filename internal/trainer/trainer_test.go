package trainer

import (
	"strings"
	"testing"

	"lcasgd/internal/cluster"
	"lcasgd/internal/core"
	"lcasgd/internal/data"
	"lcasgd/internal/model"
	"lcasgd/internal/ps"
	"lcasgd/internal/scenario"
)

// tinyProfile is a fast profile for harness tests (seconds, not minutes).
func tinyProfile() Profile {
	return Profile{
		Name: "tiny",
		Data: data.Config{
			Classes: 4, C: 1, H: 6, W: 6,
			Train: 160, Test: 80,
			NoiseSigma: 0.8, SignalScale: 0.5, Smoothing: 1, Seed: 99,
		},
		Model: model.Config{
			Name: "tiny", InC: 1, InH: 6, InW: 6,
			Stem: 4, StageReps: []int{1}, NumClasses: 4,
		},
		Batch: 20, Epochs: 3, LR: 0.08, WD: 1e-3, Lambda: 1, DCLam: 0.3,
		Cost: cluster.CIFARCostModel(), BNDecay: 0.2,
		LossPredHidden: 8, StepPredHidden: 8,
	}
}

func TestProfilesAreSane(t *testing.T) {
	for _, p := range []Profile{QuickCIFAR(), FullCIFAR(), QuickImageNet(), FullImageNet()} {
		if p.Batch <= 0 || p.Epochs <= 0 || p.LR <= 0 {
			t.Fatalf("%s: bad recipe %+v", p.Name, p)
		}
		if p.Data.Train%p.Batch != 0 && p.Data.Train/p.Batch == 0 {
			t.Fatalf("%s: batch larger than dataset", p.Name)
		}
		if p.Model.NumClasses != p.Data.Classes {
			t.Fatalf("%s: model classes %d != data classes %d", p.Name, p.Model.NumClasses, p.Data.Classes)
		}
		if in := p.Model.InC * p.Model.InH * p.Model.InW; in != p.Data.C*p.Data.H*p.Data.W {
			t.Fatalf("%s: model input %d != data features", p.Name, in)
		}
		if err := p.Cost.Validate(); err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
	}
}

func TestRunCellProducesResult(t *testing.T) {
	res := RunCell(tinyProfile(), ps.ASGD, 4, core.BNAsync, 1)
	if res.Algo != ps.ASGD || len(res.Points) == 0 {
		t.Fatal("empty result")
	}
}

func TestRunCellCfgMutates(t *testing.T) {
	called := false
	res := RunCellCfg(tinyProfile(), ps.LCASGD, 4, core.BNAsync, 1, func(c *ps.Config) {
		called = true
		c.Lambda = 0
	})
	if !called || len(res.Points) == 0 {
		t.Fatal("mutator not applied")
	}
}

func TestFig2Structure(t *testing.T) {
	cs := Fig2(tinyProfile(), 1)
	if len(cs.Order) != 4 { // SGD + 3 DC-ASGD variants
		t.Fatalf("fig2 series %v", cs.Order)
	}
	if _, ok := cs.Results["DC-ASGD-16"]; !ok {
		t.Fatal("missing DC-ASGD-16 series")
	}
}

func TestFig3PanelStructure(t *testing.T) {
	cs := Fig3Panel(tinyProfile(), 4, 1)
	if len(cs.Order) != 5 {
		t.Fatalf("fig3 series %v", cs.Order)
	}
	chart := cs.ChartEpochs(60, 12)
	if !strings.Contains(chart, "LC-ASGD") || !strings.Contains(chart, "test error vs epoch") {
		t.Fatalf("chart malformed:\n%s", chart)
	}
	timeChart := cs.ChartTime(60, 12)
	if !strings.Contains(timeChart, "virtual seconds") {
		t.Fatalf("time chart malformed:\n%s", timeChart)
	}
	tb := cs.SeriesTable()
	if len(tb.Rows) == 0 {
		t.Fatal("series table empty")
	}
}

func TestFig5PanelOmitsSGD(t *testing.T) {
	cs := Fig5Panel(tinyProfile(), 4, 1)
	if len(cs.Order) != 4 {
		t.Fatalf("fig5 series %v", cs.Order)
	}
	if _, ok := cs.Results[ps.SGD]; ok {
		t.Fatal("fig5 must omit sequential SGD, as the paper does")
	}
}

func TestTable1ShapeAndRender(t *testing.T) {
	rows, baseBN, baseAsync := Table1(tinyProfile(), true, []uint64{1})
	// 1 SGD row + 3 worker counts × 4 algorithms.
	if len(rows) != 13 {
		t.Fatalf("table1 rows %d", len(rows))
	}
	if baseBN <= 0 || baseAsync <= 0 {
		t.Fatalf("baselines %v %v", baseBN, baseAsync)
	}
	tb := RenderTable1(tinyProfile(), rows, baseBN, baseAsync)
	out := tb.String()
	if !strings.Contains(out, "baseline") || !strings.Contains(out, "LC-ASGD") {
		t.Fatalf("table malformed:\n%s", out)
	}
}

func TestTable1WithoutSGDBaseline(t *testing.T) {
	p := tinyProfile()
	p.Epochs = 2
	rows, _, _ := Table1(p, false, []uint64{1})
	if len(rows) != 12 {
		t.Fatalf("rows %d", len(rows))
	}
	if rows[0].Algo != ps.SSGD || rows[0].Workers != 4 {
		t.Fatalf("baseline row %+v, want SSGD M=4 as in the paper's ImageNet table", rows[0])
	}
}

func TestOverheadTable(t *testing.T) {
	rows := OverheadTable(tinyProfile(), 1)
	if len(rows) != 3 {
		t.Fatalf("overhead rows %d", len(rows))
	}
	for _, r := range rows {
		if r.LossPredMs <= 0 || r.StepPredMs <= 0 {
			t.Fatalf("unmeasured predictor times: %+v", r)
		}
		if r.TotalIterMs <= 0 || r.OverheadPct <= 0 {
			t.Fatalf("bad totals: %+v", r)
		}
	}
	out := RenderOverhead(tinyProfile(), rows).String()
	if !strings.Contains(out, "overhead") {
		t.Fatalf("render:\n%s", out)
	}
}

func TestPredictorTraces(t *testing.T) {
	lossChart, stepChart, res := PredictorTraces(tinyProfile(), 1)
	if !strings.Contains(lossChart, "Fig 7") || !strings.Contains(stepChart, "Fig 8") {
		t.Fatal("trace charts malformed")
	}
	if len(res.LossTrace) == 0 || len(res.StepTrace) == 0 {
		t.Fatal("traces empty")
	}
}

func TestProfileScenarioReachesEngine(t *testing.T) {
	p := tinyProfile()
	p.Epochs = 2
	p.Scenario = &scenario.Scenario{
		Name: "probe",
		Events: []scenario.Event{
			{At: 30, Kind: scenario.Crash, Worker: 1},
			{At: 80, Kind: scenario.Recover, Worker: 1},
		},
	}
	res := RunCell(p, ps.ASGD, 4, core.BNAsync, 1)
	if res.ScenarioEvents != 2 {
		t.Fatalf("profile scenario not applied: %d events", res.ScenarioEvents)
	}
}

func TestRobustnessGrid(t *testing.T) {
	p := tinyProfile()
	p.Epochs = 2
	scns := []scenario.Scenario{
		scenario.None(),
		{Name: "churn", Events: []scenario.Event{
			{At: 40, Kind: scenario.Crash, Worker: 1},
			{At: 60, Kind: scenario.PhaseShift, Worker: -1, CompScale: 2, CommScale: 2},
			{At: 120, Kind: scenario.Recover, Worker: 1},
		}},
	}
	rows := Robustness(p, 4, 1, scns, RobustnessOpts{})
	if len(rows) != len(scns)*len(RobustnessEntries) {
		t.Fatalf("robustness rows %d, want %d", len(rows), len(scns)*len(RobustnessEntries))
	}
	sawSA, sawChurnEvents := false, false
	adTopos := map[string]bool{}
	for _, r := range rows {
		if r.FinalTestErr < 0 || r.FinalTestErr > 1 {
			t.Fatalf("row %+v has invalid error", r)
		}
		if r.Updates <= 0 {
			t.Fatalf("row %+v did not train", r)
		}
		if r.Scenario == "none" && r.Events != 0 {
			t.Fatalf("stationary row reports %d scenario events", r.Events)
		}
		if r.Algo == ps.SAASGD {
			sawSA = true
		}
		if r.Algo == ps.ADPSGD {
			adTopos[r.Topology] = true
			if r.MeanStaleness <= 0 {
				t.Fatalf("AD-PSGD row %+v has no decentralized staleness", r)
			}
		} else if r.Topology != "" {
			t.Fatalf("PS row %+v carries a topology", r)
		}
		if r.Scenario == "churn" && r.Events > 0 {
			sawChurnEvents = true
		}
	}
	if !sawSA {
		t.Fatal("robustness grid omits SA-ASGD")
	}
	if !adTopos["ring"] || !adTopos["gossip"] {
		t.Fatalf("robustness grid AD-PSGD topologies %v, want ring and gossip", adTopos)
	}
	if !sawChurnEvents {
		t.Fatal("churn scenario never applied an event")
	}
	out := RenderRobustness(p, 4, rows).String()
	for _, want := range []string{"SA-ASGD", "AD-PSGD", "ring", "gossip", "churn", "max stale", "topology"} {
		if !strings.Contains(out, want) {
			t.Fatalf("robustness table missing %q:\n%s", want, out)
		}
	}
}

func TestTraceMAE(t *testing.T) {
	trace := []core.TracePoint{
		{Actual: 1, Predicted: 0},   // excluded (first half)
		{Actual: 1, Predicted: 0.8}, // tail
		{Actual: 1, Predicted: 1.2},
	}
	mae := TraceMAE(trace)
	if mae < 0.19 || mae > 0.21 {
		t.Fatalf("MAE %v, want 0.2", mae)
	}
	if TraceMAE(nil) != 0 {
		t.Fatal("empty trace MAE must be 0")
	}
}
