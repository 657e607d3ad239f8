package trainer

import (
	"fmt"

	"lcasgd/internal/core"
	"lcasgd/internal/ps"
	"lcasgd/internal/report"
	"lcasgd/internal/scenario"
)

// RobustnessEntry is one algorithm column of the robustness grid. Topology
// is empty for the parameter-server algorithms; decentralized algorithms
// appear once per compared communication graph.
type RobustnessEntry struct {
	Algo     ps.Algo
	Topology string
}

// RobustnessEntries are the distributed algorithms compared across cluster
// scenarios: the paper's four plus the staleness-aware sixth, ordered from
// fully synchronous to fully prediction-compensated, followed by
// decentralized AD-PSGD on the sparsest (ring) and a seeded random-gossip
// graph — the sync-vs-async-vs-decentralized robustness comparison.
var RobustnessEntries = []RobustnessEntry{
	{Algo: ps.SSGD}, {Algo: ps.ASGD}, {Algo: ps.SAASGD}, {Algo: ps.DCASGD}, {Algo: ps.LCASGD},
	{Algo: ps.ADPSGD, Topology: "ring"}, {Algo: ps.ADPSGD, Topology: "gossip"},
}

// RobustnessOpts parameterizes the robustness sweep beyond the grid axes.
type RobustnessOpts struct {
	// Seeds is how many seeds each cell averages over (base seed, base+1,
	// …); values below 1 mean a single seed. With several seeds the rows
	// carry mean final error plus its spread (max − min), the robustness
	// table's analogue of the paper's seed-averaged headline numbers.
	Seeds int
	// RecoverOpt adds a second row per (scenario, algorithm) in which
	// recovered workers restore the last checkpoint's server snapshot
	// instead of pulling fresh state (ps.Config.RecoverOpt) — the
	// lost-momentum variant behind `lcexp -recover-opt`. To keep the
	// variant delta about recovery semantics alone, the whole sweep
	// (base rows included) then runs with a checkpoint barrier every
	// epoch unless the profile already sets a cadence, and variant rows
	// are emitted only for scenarios that actually contain a Recover
	// event — elsewhere they would be bit-identical to the base row.
	RecoverOpt bool
}

// RobustnessRow is one cell of the robustness grid: how one algorithm
// (variant) fared under one scenario, aggregated over seeds.
type RobustnessRow struct {
	Scenario string
	Algo     ps.Algo
	// Topology is the communication graph of a decentralized row, "" for
	// parameter-server algorithms.
	Topology string
	// Variant is "" for the standard recovery semantics and "recover-opt"
	// for checkpoint-restore recovery.
	Variant string
	Seeds   int

	FinalTestErr  float64 // mean over seeds
	ErrSpread     float64 // max − min over seeds (0 with one seed)
	MeanStaleness float64 // mean over seeds
	MaxStaleness  int     // max over seeds
	Updates       int     // mean over seeds
	VirtualMs     float64 // mean over seeds
	Events        int     // max over seeds: scenario events that applied
}

// Robustness runs every RobustnessEntries algorithm under every scenario at
// the given worker count — the experiment behind the robustness table in
// DESIGN.md. The stationary paper cluster is row zero when scns includes
// scenario.None(), so degradation reads directly against it. The scenario
// and the per-entry topology override any Profile.Scenario/Topology for
// these runs; with a profile Store every underlying cell persists, so an
// interrupted sweep resumes per cell.
func Robustness(p Profile, workers int, seed uint64, scns []scenario.Scenario, opts RobustnessOpts) []RobustnessRow {
	if opts.Seeds < 1 {
		opts.Seeds = 1
	}

	// The scenario × algorithm × variant × seed grid in the classic nested
	// order; each row folds its seeds' results in that same order, so rows
	// are identical at any Profile.Jobs.
	var rows []RobustnessRow
	var cfgs []ps.Config
	for i := range scns {
		scn := &scns[i]
		variants := []string{""}
		if opts.RecoverOpt && hasRecovery(scn) {
			variants = append(variants, "recover-opt")
		}
		for _, entry := range RobustnessEntries {
			for _, v := range variants {
				rows = append(rows, RobustnessRow{Scenario: scn.Name, Algo: entry.Algo,
					Topology: entry.Topology, Variant: v, Seeds: opts.Seeds})
				for s := range opts.Seeds {
					cfg := cellConfig(p, entry.Algo, workers, core.BNAsync, seed+uint64(s))
					cfg.Scenario, cfg.Topology = scn, entry.Topology
					cfg.RecoverOpt = v != ""
					// With RecoverOpt requested, every cell — base rows
					// included — runs on the same checkpoint-barrier timeline,
					// so a variant row differs from its base row only in what
					// recovered workers pull.
					if opts.RecoverOpt && cfg.CheckpointEvery == 0 {
						cfg.CheckpointEvery = 1
					}
					cfgs = append(cfgs, cfg)
				}
			}
		}
	}

	res := runCells(p, cfgs)
	for i := range rows {
		row := &rows[i]
		loErr, hiErr := 0.0, 0.0
		for s, r := range res[i*opts.Seeds : (i+1)*opts.Seeds] {
			if s == 0 || r.FinalTestErr < loErr {
				loErr = r.FinalTestErr
			}
			if s == 0 || r.FinalTestErr > hiErr {
				hiErr = r.FinalTestErr
			}
			row.FinalTestErr += r.FinalTestErr
			row.MeanStaleness += r.MeanStaleness
			row.Updates += r.Updates
			row.VirtualMs += r.VirtualMs
			row.MaxStaleness = max(row.MaxStaleness, r.MaxStaleness)
			row.Events = max(row.Events, r.ScenarioEvents)
		}
		n := float64(opts.Seeds)
		row.FinalTestErr /= n
		row.MeanStaleness /= n
		row.VirtualMs /= n
		row.Updates /= opts.Seeds
		row.ErrSpread = hiErr - loErr
	}
	return rows
}

// hasRecovery reports whether the timeline re-admits any worker — the only
// scenarios where checkpoint-restore recovery can differ from fresh pulls.
func hasRecovery(scn *scenario.Scenario) bool {
	for _, ev := range scn.Events {
		if ev.Kind == scenario.Recover {
			return true
		}
	}
	return false
}

// RenderRobustness formats the robustness grid: final error (mean ± spread
// over seeds), the staleness the scenario induced, and run shape, per
// algorithm × scenario × recovery variant.
func RenderRobustness(p Profile, workers int, rows []RobustnessRow) *report.Table {
	seeds := 1
	for _, r := range rows {
		if r.Seeds > seeds {
			seeds = r.Seeds
		}
	}
	tb := report.NewTable(
		fmt.Sprintf("Robustness (%s, M=%d, seeds=%d): final test error and staleness per scenario",
			p.Name, workers, seeds),
		"scenario", "algorithm", "topology", "variant", "test err%", "±spread", "mean stale", "max stale",
		"updates", "vsec", "events")
	for _, r := range rows {
		topo := r.Topology
		if topo == "" {
			topo = "-"
		}
		variant := r.Variant
		if variant == "" {
			variant = "-"
		}
		spread := "-"
		if r.Seeds > 1 {
			spread = fmt.Sprintf("%.2f", r.ErrSpread*100)
		}
		tb.AddRow(r.Scenario, string(r.Algo), topo, variant,
			report.Pct(r.FinalTestErr),
			spread,
			fmt.Sprintf("%.2f", r.MeanStaleness),
			fmt.Sprintf("%d", r.MaxStaleness),
			fmt.Sprintf("%d", r.Updates),
			fmt.Sprintf("%.1f", r.VirtualMs/1000),
			fmt.Sprintf("%d", r.Events))
	}
	return tb
}
