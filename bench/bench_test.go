package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// benchmarkFile is the part of BENCHMARK.json the registry must agree with.
type benchmarkFile struct {
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

func readBenchmarkFile(root string) (benchmarkFile, error) {
	var bf benchmarkFile
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return bf, err
	}
	return bf, json.Unmarshal(b, &bf)
}

// TestRegistryMatchesBenchmarkFile holds the harness's registry and
// BENCHMARK.json to the same workloads and metrics, name by name.
func TestRegistryMatchesBenchmarkFile(t *testing.T) {
	bf, err := readBenchmarkFile("..")
	if err != nil {
		t.Fatal(err)
	}
	if bf.RunSeconds != defaultSeconds {
		t.Errorf("BENCHMARK.json runs %d s, the -seconds default is %d", bf.RunSeconds, defaultSeconds)
	}
	if len(bf.Workloads) != len(workloadDefs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the registry %d", len(bf.Workloads), len(workloadDefs))
	}
	for i, w := range workloadDefs {
		if bf.Workloads[i] != w {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the registry %+v", i, bf.Workloads[i], w)
		}
		if _, ok := setups("")[w.Name]; !ok {
			t.Errorf("workload %s has no set-up", w.Name)
		}
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	compare := func(kind string, file, reg []metricDef) {
		if len(file) != len(reg) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the registry %d", kind, len(file), len(reg))
		}
		for i, d := range reg {
			f := file[i]
			if f.Name != d.Name || f.Unit != d.Unit || f.Better != d.Better || f.Bound != d.Bound {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the registry %+v", kind, i, f, d)
			}
			if !name.MatchString(d.Name) || seen[d.Name] {
				t.Errorf("%s metric name %q is malformed or used twice", kind, d.Name)
			}
			seen[d.Name] = true
		}
	}
	compare("end-to-end", bf.EndToEnd, endToEnd)
	compare("per-layer", bf.PerLayer, perLayer)
}

// TestSmoke runs every workload at the smoke sizes, untraced and traced, and
// checks that each declared metric comes out exactly once with a finite
// value and that no verification fails. emit already counts a missing,
// undeclared or non-finite metric as a failed operation.
func TestSmoke(t *testing.T) {
	applySmokeSizes()
	root, err := filepath.Abs(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	opt := options{root: root, seed: 7, smoke: true}
	for _, w := range workloadDefs {
		for trace, defs := range [][]metricDef{endToEnd, perLayer} {
			run := runEndToEnd
			if trace == 1 {
				run = runTraced
			}
			res := run(w.Name, opt)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace %d: %d of %d operations failed", w.Name, trace, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace %d: %d metrics, want %d", w.Name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				v, ok := res.Metrics[d.Name]
				if !ok || v.Unit != d.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s trace %d: metric %s = %+v", w.Name, trace, d.Name, v)
				}
			}
		}
		for _, f := range []string{"trace." + w.Name + ".json", "layers." + w.Name + ".json"} {
			if _, err := os.Stat(filepath.Join(opt.outDir(), f)); err != nil {
				t.Errorf("traced run left no %s: %v", f, err)
			}
		}
	}
}
