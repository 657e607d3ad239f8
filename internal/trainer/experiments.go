package trainer

import (
	"fmt"

	"lcasgd/internal/core"
	"lcasgd/internal/ps"
	"lcasgd/internal/report"
)

// WorkerCounts is the paper's grid of cluster sizes.
var WorkerCounts = []int{4, 8, 16}

// DistributedAlgos are the four distributed algorithms of Figures 3–6.
var DistributedAlgos = []ps.Algo{ps.SSGD, ps.ASGD, ps.DCASGD, ps.LCASGD}

// CurveSet is the output of one figure panel: per-algorithm learning curves
// for a fixed worker count.
type CurveSet struct {
	Profile string
	Workers int
	Results map[ps.Algo]ps.Result
	Order   []ps.Algo // rendering order
}

// curves runs a figure's cells and files each result under its name,
// in list order.
func curves(p Profile, workers int, names []ps.Algo, cfgs []ps.Config) CurveSet {
	cs := CurveSet{Profile: p.Name, Workers: workers, Results: map[ps.Algo]ps.Result{}}
	for i, r := range runCells(p, cfgs) {
		cs.Results[names[i]] = r
		cs.Order = append(cs.Order, names[i])
	}
	return cs
}

// Fig2 reproduces Figure 2: DC-ASGD's test error across M ∈ {4,8,16} with
// sequential SGD as reference, showing the degradation that motivates
// LC-ASGD.
func Fig2(p Profile, seed uint64) CurveSet {
	names := []ps.Algo{ps.SGD}
	cfgs := []ps.Config{cellConfig(p, ps.SGD, 1, core.BNAsync, seed)}
	for _, m := range WorkerCounts {
		names = append(names, ps.Algo(fmt.Sprintf("DC-ASGD-%d", m)))
		cfgs = append(cfgs, cellConfig(p, ps.DCASGD, m, core.BNAsync, seed))
	}
	return curves(p, 0, names, cfgs)
}

// panel runs algos at the given worker count with Async-BN; sequential SGD
// always runs on one worker.
func panel(p Profile, workers int, seed uint64, algos []ps.Algo) CurveSet {
	cfgs := make([]ps.Config, len(algos))
	for i, a := range algos {
		m := workers
		if a == ps.SGD {
			m = 1
		}
		cfgs[i] = cellConfig(p, a, m, core.BNAsync, seed)
	}
	return curves(p, workers, algos, cfgs)
}

// Fig3Panel reproduces one panel of Figure 3 (and Figure 4, which is the
// same data plotted against virtual time): all five algorithms at the given
// worker count with Async-BN.
func Fig3Panel(p Profile, workers int, seed uint64) CurveSet {
	return panel(p, workers, seed, append([]ps.Algo{ps.SGD}, DistributedAlgos...))
}

// Fig5Panel reproduces one panel of Figure 5 (and Figure 6): the four
// distributed algorithms on the ImageNet-scale profile (the paper omits
// sequential SGD there because single-machine training is impractical).
func Fig5Panel(p Profile, workers int, seed uint64) CurveSet {
	return panel(p, workers, seed, DistributedAlgos)
}

// ChartEpochs renders a curve set as error-vs-epoch ASCII charts (test
// error), the Figure 3/5 view.
func (cs CurveSet) ChartEpochs(width, height int) string {
	var series []report.Series
	for _, a := range cs.Order {
		r := cs.Results[a]
		s := report.Series{Name: string(a)}
		for _, pt := range r.Points {
			s.X = append(s.X, float64(pt.Epoch))
			s.Y = append(s.Y, pt.TestErr)
		}
		series = append(series, s)
	}
	title := fmt.Sprintf("%s: test error vs epoch (M=%d)", cs.Profile, cs.Workers)
	return report.Chart(title, "epoch", "test error", width, height, series...)
}

// ChartTime renders the error-vs-virtual-seconds view (Figures 4/6).
func (cs CurveSet) ChartTime(width, height int) string {
	var series []report.Series
	for _, a := range cs.Order {
		r := cs.Results[a]
		s := report.Series{Name: string(a)}
		for _, pt := range r.Points {
			s.X = append(s.X, pt.Time/1000) // virtual ms → s
			s.Y = append(s.Y, pt.TestErr)
		}
		series = append(series, s)
	}
	title := fmt.Sprintf("%s: test error vs virtual seconds (M=%d)", cs.Profile, cs.Workers)
	return report.Chart(title, "seconds", "test error", width, height, series...)
}

// SeriesTable dumps the curve points as a table (the exact rows behind the
// figure, for EXPERIMENTS.md).
func (cs CurveSet) SeriesTable() *report.Table {
	tb := report.NewTable(
		fmt.Sprintf("%s M=%d learning curves", cs.Profile, cs.Workers),
		"algo", "epoch", "vsec", "train_err%", "test_err%")
	for _, a := range cs.Order {
		for _, pt := range cs.Results[a].Points {
			tb.AddRow(string(a), fmt.Sprintf("%d", pt.Epoch),
				fmt.Sprintf("%.1f", pt.Time/1000),
				report.Pct(pt.TrainErr), report.Pct(pt.TestErr))
		}
	}
	return tb
}

// Table1Row is one line of Table 1.
type Table1Row struct {
	Workers  int
	Algo     ps.Algo
	BNErr    float64
	AsyncErr float64
}

// Table1 reproduces the paper's Table 1 for one dataset profile: final test
// error for every (M, algorithm) under regular BN and Async-BN, averaged
// over the given seeds. The returned baseline is the first row's error
// (sequential SGD when includeSGD, else SSGD at the smallest M, mirroring
// the paper's ImageNet baseline choice).
func Table1(p Profile, includeSGD bool, seeds []uint64) (rows []Table1Row, baselineBN, baselineAsync float64) {
	// The grid in the classic nested order: every row's seeds under BN, then
	// under Async-BN; sequential SGD has only the latter.
	var cfgs []ps.Config
	addSeeds := func(algo ps.Algo, workers int, mode core.BNMode) {
		for _, s := range seeds {
			cfgs = append(cfgs, cellConfig(p, algo, workers, mode, s))
		}
	}
	if includeSGD {
		rows = append(rows, Table1Row{Workers: 1, Algo: ps.SGD})
		addSeeds(ps.SGD, 1, core.BNAsync)
	}
	for _, m := range WorkerCounts {
		for _, a := range DistributedAlgos {
			rows = append(rows, Table1Row{Workers: m, Algo: a})
			addSeeds(a, m, core.BNReplace)
			addSeeds(a, m, core.BNAsync)
		}
	}
	res := runCells(p, cfgs)
	// mean folds the next len(seeds) results in list order.
	mean := func() float64 {
		sum := 0.0
		for _, r := range res[:len(seeds)] {
			sum += r.FinalTestErr
		}
		res = res[len(seeds):]
		return sum / float64(len(seeds))
	}
	for i := range rows {
		r := &rows[i]
		r.BNErr = mean()
		r.AsyncErr = r.BNErr
		if r.Algo != ps.SGD {
			r.AsyncErr = mean()
		}
	}
	baselineBN, baselineAsync = rows[0].BNErr, rows[0].AsyncErr
	return rows, baselineBN, baselineAsync
}

// RenderTable1 formats Table 1 rows in the paper's layout.
func RenderTable1(p Profile, rows []Table1Row, baseBN, baseAsync float64) *report.Table {
	tb := report.NewTable(
		fmt.Sprintf("Table 1 (%s): final test error, BN vs Async-BN", p.Name),
		"#workers", "algorithm", "BN err%", "BN deg%", "AsyncBN err%", "AsyncBN deg%")
	for i, r := range rows {
		bnDeg, asDeg := "baseline", "baseline"
		if i > 0 {
			bnDeg = report.Deg(r.BNErr, baseBN)
			asDeg = report.Deg(r.AsyncErr, baseAsync)
		}
		tb.AddRow(fmt.Sprintf("%d", r.Workers), string(r.Algo),
			report.Pct(r.BNErr), bnDeg, report.Pct(r.AsyncErr), asDeg)
	}
	return tb
}

// OverheadRow is one column of Tables 2–3.
type OverheadRow struct {
	Workers       int
	LossPredMs    float64 // real measured online-training+prediction time
	StepPredMs    float64
	TotalIterMs   float64 // mean virtual iteration duration
	OverheadPct   float64
	MeanStaleness float64
}

// OverheadTable reproduces Tables 2–3: per-iteration predictor cost for
// LC-ASGD across worker counts. Predictor times are real measured wall
// times of this implementation's LSTM predictors; the total iteration time
// is the virtual mean, so the overhead percentage composes a real numerator
// with the simulated denominator exactly as DESIGN.md documents. Because
// the numerator is a real wall-time measurement, this sweep ignores
// Profile.Jobs and always runs sequentially: concurrent cells contending
// for cores would inflate the measured predictor times.
func OverheadTable(p Profile, seed uint64) []OverheadRow {
	var rows []OverheadRow
	for _, m := range WorkerCounts {
		r := RunCell(p, ps.LCASGD, m, core.BNAsync, seed)
		row := OverheadRow{
			Workers:       m,
			LossPredMs:    r.AvgLossPredMs,
			StepPredMs:    r.AvgStepPredMs,
			TotalIterMs:   r.AvgIterVirtualMs * float64(m), // per-worker iteration duration
			MeanStaleness: r.MeanStaleness,
		}
		if row.TotalIterMs > 0 {
			row.OverheadPct = (row.LossPredMs + row.StepPredMs) / row.TotalIterMs * 100
		}
		rows = append(rows, row)
	}
	return rows
}

// RenderOverhead formats Tables 2–3.
func RenderOverhead(p Profile, rows []OverheadRow) *report.Table {
	tb := report.NewTable(
		fmt.Sprintf("Predictor overhead per training iteration (%s)", p.Name),
		"#workers", "loss pred (ms)", "step pred (ms)", "total iter (ms)", "overhead (%)")
	for _, r := range rows {
		tb.AddRow(fmt.Sprintf("%d", r.Workers),
			fmt.Sprintf("%.2f", r.LossPredMs),
			fmt.Sprintf("%.2f", r.StepPredMs),
			fmt.Sprintf("%.2f", r.TotalIterMs),
			fmt.Sprintf("%.2f", r.OverheadPct))
	}
	return tb
}

// PredictorTraces reproduces Figures 7–8: the loss-predictor and
// step-predictor traces from an LC-ASGD run at M=16.
func PredictorTraces(p Profile, seed uint64) (lossChart, stepChart string, res ps.Result) {
	res = RunCell(p, ps.LCASGD, 16, core.BNAsync, seed)
	window := 80 // the paper plots ~80 iterations
	lt := res.LossTrace
	if len(lt) > window {
		lt = lt[len(lt)-window:]
	}
	actual := report.Series{Name: "Loss"}
	pred := report.Series{Name: "Loss Predictor"}
	for i, tp := range lt {
		actual.X = append(actual.X, float64(i))
		actual.Y = append(actual.Y, tp.Actual)
		pred.X = append(pred.X, float64(i))
		pred.Y = append(pred.Y, tp.Predicted)
	}
	lossChart = report.Chart("Fig 7: loss predictor vs actual loss (M=16, tail window)",
		"iteration", "loss", 72, 14, actual, pred)

	st := res.StepTrace
	if len(st) > window {
		st = st[len(st)-window:]
	}
	sActual := report.Series{Name: "Finishing Order (staleness)"}
	sPred := report.Series{Name: "Step Predictor"}
	for i, tp := range st {
		sActual.X = append(sActual.X, float64(i))
		sActual.Y = append(sActual.Y, tp.Actual)
		sPred.X = append(sPred.X, float64(i))
		sPred.Y = append(sPred.Y, tp.Predicted)
	}
	stepChart = report.Chart("Fig 8: step predictor vs observed staleness (M=16, tail window)",
		"iteration", "steps", 72, 14, sActual, sPred)
	return lossChart, stepChart, res
}

// TraceMAE summarizes a predictor trace: mean absolute error over the tail
// half, used by tests asserting Figures 7–8 reproduce ("the curve of the
// prediction largely overlapped the curve of the actual loss values").
func TraceMAE(trace []core.TracePoint) float64 {
	if len(trace) == 0 {
		return 0
	}
	tail := trace[len(trace)/2:]
	sum := 0.0
	for _, tp := range tail {
		d := tp.Actual - tp.Predicted
		if d < 0 {
			d = -d
		}
		sum += d
	}
	return sum / float64(len(tail))
}
