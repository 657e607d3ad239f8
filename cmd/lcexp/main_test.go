package main

import (
	"compress/gzip"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"lcasgd/internal/ps"
	"lcasgd/internal/snapshot"
	"lcasgd/internal/trainer"
)

// TestResolveJobs pins the -jobs/-parallel rule: the default pool is every
// core, -parallel alone must be usable on a multi-core box (it takes the
// default down to one cell at a time), and an explicit pool beside
// -parallel is taken as given.
func TestResolveJobs(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	for _, tc := range []struct {
		jobs     int
		parallel bool
		want     int
		wantErr  bool
	}{
		{jobs: 0, parallel: false, want: procs},
		{jobs: 0, parallel: true, want: 1},
		{jobs: 1, parallel: true, want: 1},
		{jobs: 1, parallel: false, want: 1},
		{jobs: 4, parallel: false, want: 4},
		{jobs: 2, parallel: true, want: 2},
		{jobs: 4, parallel: true, want: 4},
		{jobs: -1, parallel: false, wantErr: true},
		{jobs: -1, parallel: true, wantErr: true},
	} {
		got, err := resolveJobs(tc.jobs, tc.parallel)
		if (err != nil) != tc.wantErr {
			t.Fatalf("resolveJobs(%d, %v): err = %v, wantErr %v", tc.jobs, tc.parallel, err, tc.wantErr)
		}
		if err == nil && got != tc.want {
			t.Fatalf("resolveJobs(%d, %v) = %d, want %d", tc.jobs, tc.parallel, got, tc.want)
		}
	}
}

// TestCheckFlags pins every rejection: one row per rule, each breaking
// exactly that rule from the flag defaults, in the order the rules are
// tried. The messages are the command's interface (exit 2, "lcexp: " + the
// message on stderr), so they are compared in full; the two that quote a
// package's vocabulary are matched by prefix.
func TestCheckFlags(t *testing.T) {
	defaults := flagValues{scenario: "none", seeds: 1, ckptEvery: 1, ckptKeep: 1, ckptFullEvery: 8}
	for _, tc := range []struct {
		name string
		set  func(f *flagValues)
		want string // "" = accepted; a trailing "…" matches by prefix
	}{
		{"defaults", func(f *flagValues) {}, ""},
		{"everything at once", func(f *flagValues) {
			*f = flagValues{scenario: "mixed", topology: "edges:0-1,1-2,2-3", traceOut: "t.json", metricsOut: "m.csv",
				ckptDir: "store", workers: 4, jobs: 3, seeds: 2, ckptKeep: 2, ckptEvery: 2, ckptFullEvery: 1,
				parallel: true, resume: true}
		}, ""},
		{"-scenario bogus", func(f *flagValues) { f.scenario = "bogus" }, `scenario: unknown scenario "bogus" (valid: …`},
		{"-topology bogus", func(f *flagValues) { f.topology = "bogus" }, `topology: unknown spec "bogus" (valid: …`},
		{"-workers -1", func(f *flagValues) { f.workers = -1 }, "-workers must be non-negative (0 = the full 4,8,16 grid)"},
		{"-topology edges:0-9 -workers 4", func(f *flagValues) { f.topology, f.workers = "edges:0-9", 4 },
			`-topology "edges:0-9" names ranks up to 9, but the sweep runs fleets of 4 workers; pass -workers 10 or larger`},
		{"-topology edges:0-9 on the default grid", func(f *flagValues) { f.topology = "edges:0-9" },
			`-topology "edges:0-9" names ranks up to 9, but the sweep runs fleets of 4 workers; pass -workers 10 or larger`},
		{"-topology edges:0-9 -workers 10", func(f *flagValues) { f.topology, f.workers = "edges:0-9", 10 }, ""},
		{"-trace-out -render", func(f *flagValues) { f.traceOut, f.render, f.ckptDir = "t.json", true, "store" },
			"-trace-out/-metrics-out cannot be combined with -render: rendered cells compute nothing, so there is no telemetry to record"},
		{"-metrics-out -render", func(f *flagValues) { f.metricsOut, f.render, f.ckptDir = "m.json", true, "store" },
			"-trace-out/-metrics-out cannot be combined with -render: rendered cells compute nothing, so there is no telemetry to record"},
		{"-jobs -1", func(f *flagValues) { f.jobs = -1 }, "-jobs must be non-negative"},
		{"-jobs -1 -render", func(f *flagValues) { f.jobs, f.render, f.ckptDir = -1, true, "store" }, "-jobs must be non-negative"},
		{"-resume without -ckpt-dir", func(f *flagValues) { f.resume = true }, "-resume requires -ckpt-dir (nowhere to resume from)"},
		{"-render without -ckpt-dir", func(f *flagValues) { f.render = true }, "-render requires -ckpt-dir (nowhere to load results from)"},
		{"-ckpt-keep 0", func(f *flagValues) { f.ckptKeep = 0 }, "-ckpt-keep must be at least 1"},
		{"-ckpt-every -1", func(f *flagValues) { f.ckptEvery = -1 }, "-ckpt-every cannot be negative"},
		{"-ckpt-every 0 -ckpt-dir", func(f *flagValues) { f.ckptEvery, f.ckptDir = 0, "store" }, "-ckpt-every must be positive with -ckpt-dir"},
		{"-ckpt-every 0", func(f *flagValues) { f.ckptEvery = 0 }, ""},
		{"-ckpt-full-every 0", func(f *flagValues) { f.ckptFullEvery = 0 }, "-ckpt-full-every must be at least 1"},
		{"-seeds 0", func(f *flagValues) { f.seeds = 0 }, "-seeds must be at least 1"},
		{"-seeds -3", func(f *flagValues) { f.seeds = -3 }, "-seeds must be at least 1"},
		{"first failure wins", func(f *flagValues) { f.workers, f.seeds = -1, 0 }, "-workers must be non-negative (0 = the full 4,8,16 grid)"},
	} {
		f := defaults
		tc.set(&f)
		got := ""
		if err := checkFlags(f); err != nil {
			got = err.Error()
		}
		if prefix, ok := strings.CutSuffix(tc.want, "…"); ok {
			if !strings.HasPrefix(got, prefix) {
				t.Errorf("%s: got %q, want prefix %q", tc.name, got, prefix)
			}
		} else if got != tc.want {
			t.Errorf("%s: got %q, want %q", tc.name, got, tc.want)
		}
	}
}

// TestApply: the sweep pool size reaches every profile whatever the
// backend — `-jobs 2 -parallel` runs two cells at once, each on the
// concurrent backend — and the store flags arrive only with a store.
func TestApply(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	for _, tc := range []struct {
		jobs        int
		parallel    bool
		wantJobs    int
		wantBackend ps.BackendKind
	}{
		{jobs: 2, parallel: true, wantJobs: 2, wantBackend: ps.BackendConcurrent},
		{jobs: 0, parallel: true, wantJobs: 1, wantBackend: ps.BackendConcurrent},
		{jobs: 3, parallel: false, wantJobs: 3},
		{jobs: 0, parallel: false, wantJobs: procs},
	} {
		f := flagValues{scenario: "flaky", topology: "complete", jobs: tc.jobs, parallel: tc.parallel,
			ckptEvery: 2, ckptKeep: 3, ckptFullEvery: 4, render: true}
		for _, p := range []trainer.Profile{trainer.QuickCIFAR(), trainer.QuickImageNet()} {
			f.apply(&p, nil)
			if p.Jobs != tc.wantJobs || p.Backend != tc.wantBackend {
				t.Fatalf("-jobs %d -parallel=%v: %s got Jobs %d backend %q, want %d %q",
					tc.jobs, tc.parallel, p.Name, p.Jobs, p.Backend, tc.wantJobs, tc.wantBackend)
			}
			if p.Scenario == nil || p.Scenario.Name != "flaky" || p.Topology != "complete" {
				t.Fatalf("%s: scenario %v topology %q", p.Name, p.Scenario, p.Topology)
			}
			if p.Store != nil || p.CkptEvery != 0 || p.Render {
				t.Fatalf("%s: store flags applied without a store", p.Name)
			}
		}
	}
	st, err := snapshot.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var p trainer.Profile
	flagValues{scenario: "none", ckptEvery: 2, ckptKeep: 3, ckptFullEvery: 4, resume: true}.apply(&p, st)
	if p.Store != st || p.CkptEvery != 2 || p.CkptKeep != 3 || p.CkptFullEvery != 4 || !p.Resume || p.Render || p.Scenario != nil {
		t.Fatalf("store wiring: %+v", p)
	}
}

// TestFailedRunLeavesCompleteProfiles: a run that exits 1 after the
// profilers started — here -render finding an empty store — still stops
// them, so both profiles are complete pprof files (gzip streams with a
// profile inside), not the empty file an os.Exit past the deferred stops
// leaves behind.
func TestFailedRunLeavesCompleteProfiles(t *testing.T) {
	dir := t.TempDir()
	store := filepath.Join(dir, "store")
	if err := os.Mkdir(store, 0o755); err != nil {
		t.Fatal(err)
	}
	cpu, mem := filepath.Join(dir, "cpu.out"), filepath.Join(dir, "mem.out")
	args := []string{"-cpuprofile", cpu, "-memprofile", mem, "-exp", "fig3", "-workers", "4", "-render", "-ckpt-dir", store}
	if code := lcexp(args); code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	for _, path := range []string{cpu, mem} {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		z, err := gzip.NewReader(f)
		if err != nil {
			t.Fatalf("%s: %v", filepath.Base(path), err)
		}
		if b, err := io.ReadAll(z); err != nil || len(b) == 0 {
			t.Fatalf("%s: %d profile bytes, err %v", filepath.Base(path), len(b), err)
		}
	}
}
