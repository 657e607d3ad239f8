package trainer

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"lcasgd/internal/ps"
	"lcasgd/internal/scenario"
	"lcasgd/internal/snapshot"
)

// The scheduler's contract: a sweep's output — rows, rendered tables,
// curves, persisted store bytes — is identical at any Profile.Jobs. The
// only non-deterministic Result fields are AvgLossPredMs/AvgStepPredMs
// (real measured wall times, documented in ps.Result), so comparisons
// normalize exactly those two and nothing else.

// schedProfile is a tinyProfile shrunk further for sweep-shaped tests.
func schedProfile(jobs int) Profile {
	p := tinyProfile()
	p.Epochs = 2
	p.Jobs = jobs
	return p
}

func normalizeResult(r ps.Result) ps.Result {
	r.AvgLossPredMs, r.AvgStepPredMs = 0, 0
	return r
}

func schedScenarios() []scenario.Scenario {
	return []scenario.Scenario{
		scenario.None(),
		{Name: "blip", Events: []scenario.Event{
			{At: 100, Kind: scenario.Crash, Worker: 1},
			{At: 170, Kind: scenario.Recover, Worker: 1},
		}},
	}
}

// TestRobustnessJobsDeterminism: the parallel robustness grid is equal to
// the sequential one row for row (RobustnessRow has only virtual/
// deterministic fields), and so is the rendered table.
func TestRobustnessJobsDeterminism(t *testing.T) {
	scns := schedScenarios()
	opts := RobustnessOpts{Seeds: 2, RecoverOpt: true}
	seqRows := Robustness(schedProfile(1), 4, 1, scns, opts)
	parRows := Robustness(schedProfile(3), 4, 1, scns, opts)
	if !reflect.DeepEqual(seqRows, parRows) {
		t.Fatalf("jobs=3 robustness rows differ from jobs=1:\nseq %+v\npar %+v", seqRows, parRows)
	}
	seqTb := RenderRobustness(schedProfile(1), 4, seqRows).String()
	parTb := RenderRobustness(schedProfile(3), 4, parRows).String()
	if seqTb != parTb {
		t.Fatalf("rendered robustness tables differ:\n%s\nvs\n%s", seqTb, parTb)
	}
}

// TestFig3PanelJobsDeterminism: full learning curves (every point, every
// summary field except the measured-ms pair) match across Jobs.
func TestFig3PanelJobsDeterminism(t *testing.T) {
	seq := Fig3Panel(schedProfile(1), 4, 1)
	par := Fig3Panel(schedProfile(3), 4, 1)
	if !reflect.DeepEqual(seq.Order, par.Order) {
		t.Fatalf("algo order differs: %v vs %v", seq.Order, par.Order)
	}
	for _, a := range seq.Order {
		sr, pr := normalizeResult(seq.Results[a]), normalizeResult(par.Results[a])
		if !reflect.DeepEqual(sr, pr) {
			t.Fatalf("%s: jobs=3 result differs from jobs=1", a)
		}
	}
	if seq.SeriesTable().String() != par.SeriesTable().String() {
		t.Fatal("series tables differ across Jobs")
	}
}

// TestTable1JobsDeterminism shrinks the worker grid so the full Table 1
// assembly (seed means, BN/Async pairs, baseline extraction) runs cheaply
// under both pool shapes.
func TestTable1JobsDeterminism(t *testing.T) {
	saved := WorkerCounts
	WorkerCounts = []int{2}
	defer func() { WorkerCounts = saved }()
	seeds := []uint64{1, 2}
	seqRows, sb1, sb2 := Table1(schedProfile(1), true, seeds)
	parRows, pb1, pb2 := Table1(schedProfile(3), true, seeds)
	if !reflect.DeepEqual(seqRows, parRows) || sb1 != pb1 || sb2 != pb2 {
		t.Fatalf("jobs=3 Table1 differs from jobs=1:\nseq %+v\npar %+v", seqRows, parRows)
	}
}

// TestSweepJobsStoreByteIdentical: a persisted parallel sweep leaves a
// byte-identical store to a sequential one — same run dirs, same artifact
// bytes — except result.json's two measured-ms fields, which are compared
// after normalization.
func TestSweepJobsStoreByteIdentical(t *testing.T) {
	runSweep := func(jobs int) string {
		dir := t.TempDir()
		st, err := snapshot.OpenStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		p := schedProfile(jobs)
		p.Store = st
		p.CkptEvery = 1
		Robustness(p, 4, 1, schedScenarios(), RobustnessOpts{Seeds: 2})
		return dir
	}
	seqDir := runSweep(1)
	parDir := runSweep(3)

	relFiles := func(root string) []string {
		var files []string
		err := filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
			if err != nil {
				return err
			}
			if !info.IsDir() {
				rel, _ := filepath.Rel(root, path)
				files = append(files, rel)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return files
	}
	seqFiles, parFiles := relFiles(seqDir), relFiles(parDir)
	if !reflect.DeepEqual(seqFiles, parFiles) {
		t.Fatalf("store layouts differ:\nseq %v\npar %v", seqFiles, parFiles)
	}
	for _, rel := range seqFiles {
		sb, err := os.ReadFile(filepath.Join(seqDir, rel))
		if err != nil {
			t.Fatal(err)
		}
		pb, err := os.ReadFile(filepath.Join(parDir, rel))
		if err != nil {
			t.Fatal(err)
		}
		if filepath.Base(rel) == "result.json" {
			var sr, pr ps.Result
			if err := json.Unmarshal(sb, &sr); err != nil {
				t.Fatalf("%s: %v", rel, err)
			}
			if err := json.Unmarshal(pb, &pr); err != nil {
				t.Fatalf("%s: %v", rel, err)
			}
			if !reflect.DeepEqual(normalizeResult(sr), normalizeResult(pr)) {
				t.Fatalf("%s differs beyond the measured-ms fields", rel)
			}
			continue
		}
		if string(sb) != string(pb) {
			t.Fatalf("store artifact %s is not byte-identical across Jobs", rel)
		}
	}
}

// TestJobsWithConcurrentBackend: pooled cells each running worker lanes
// (cells × lanes goroutines) produce the sequential sweep's rows.
func TestJobsWithConcurrentBackend(t *testing.T) {
	scns := schedScenarios()
	opts := RobustnessOpts{Seeds: 2, RecoverOpt: true}
	par := schedProfile(3)
	par.Backend = ps.BackendConcurrent
	seqRows := Robustness(schedProfile(1), 4, 1, scns, opts)
	parRows := Robustness(par, 4, 1, scns, opts)
	if !reflect.DeepEqual(seqRows, parRows) {
		t.Fatalf("jobs=3 concurrent-backend rows differ from jobs=1 sequential:\nseq %+v\npar %+v", seqRows, parRows)
	}
}

// TestSweepFailureSurfacesItself: a failing cell's panic value leaves the
// sweep as itself at any Jobs — a render over an empty store surfaces
// *RenderMissingError for the sweep's first cell — and cells that had not
// started when it failed are skipped: at most Jobs of the panel's five
// cells open a run directory.
func TestSweepFailureSurfacesItself(t *testing.T) {
	for _, jobs := range []int{1, 2} {
		st, err := snapshot.OpenStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		p := schedProfile(jobs)
		p.Store, p.Render = st, true
		func() {
			defer func() {
				rec := recover()
				miss, ok := rec.(*RenderMissingError)
				if !ok {
					t.Fatalf("jobs=%d: recovered %v (%T), want *RenderMissingError", jobs, rec, rec)
				}
				if miss.Cfg.Algo != ps.SGD {
					t.Fatalf("jobs=%d: render error names %s, want the first cell (SGD)", jobs, miss.Cfg.Algo)
				}
			}()
			Fig3Panel(p, 4, 1)
		}()
		runs, err := st.Runs()
		if err != nil {
			t.Fatal(err)
		}
		if len(runs) < 1 || len(runs) > jobs {
			t.Fatalf("jobs=%d: %d cells started after the first failure could stop them, want 1..%d", jobs, len(runs), jobs)
		}
	}
}

// BenchmarkRobustnessSweep measures sweep wall-clock at both pool shapes —
// the scheduler-level number bench/ reports as trainer.jobs_speedup. On a
// multi-core runner jobs=4 should approach 4x; on one core the two are
// equal-ish, which is itself evidence the pool adds no overhead.
func BenchmarkRobustnessSweep(b *testing.B) {
	for _, jobs := range []int{1, 4} {
		b.Run(map[int]string{1: "jobs1", 4: "jobs4"}[jobs], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				Robustness(schedProfile(jobs), 4, 1, []scenario.Scenario{scenario.None()}, RobustnessOpts{})
			}
		})
	}
}
