package trainer

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"lcasgd/internal/core"
	"lcasgd/internal/ps"
)

// telemetrySweep runs the two Fig3 panels that share the SGD baseline under
// one collector — the cross-sweep dedupe shape — and returns the collector's
// deterministic projections.
func telemetrySweep(t *testing.T, jobs int) (trace, metrics []byte, tel *Telemetry) {
	t.Helper()
	p := schedProfile(jobs)
	tel = NewTelemetry()
	p.Telemetry = tel
	Fig3Panel(p, 4, 1)
	Fig3Panel(p, 8, 1)
	trace, err := tel.TraceJSON()
	if err != nil {
		t.Fatal(err)
	}
	metrics, err = tel.MetricsJSON(false)
	if err != nil {
		t.Fatal(err)
	}
	return trace, metrics, tel
}

// TestTelemetryJobsByteIdentity: the collected trace and deterministic
// metrics dumps are byte-identical whether the sweep ran sequentially or on
// a 3-job pool, and the SGD baseline shared by both panels records exactly
// once.
func TestTelemetryJobsByteIdentity(t *testing.T) {
	seqTrace, seqMetrics, seqTel := telemetrySweep(t, 1)
	parTrace, parMetrics, parTel := telemetrySweep(t, 3)
	// 2 panels × (SGD + 4 distributed algos), minus the shared SGD cell.
	if n := seqTel.Cells(); n != 9 || parTel.Cells() != 9 {
		t.Fatalf("cells recorded: seq %d, par %d, want 9", n, parTel.Cells())
	}
	if !bytes.Equal(seqTrace, parTrace) {
		t.Fatalf("trace bytes differ across Jobs (%d vs %d bytes)", len(seqTrace), len(parTrace))
	}
	if !bytes.Equal(seqMetrics, parMetrics) {
		t.Fatal("deterministic metrics bytes differ across Jobs")
	}
	if !strings.Contains(string(seqMetrics), "staleness") {
		t.Fatal("metrics dump missing instruments")
	}
}

// TestProgressReportsCellKeys: every progress report carries the completed
// cell's full config key and the sweep's full cell count, even inline, and
// the final report's done equals the total.
func TestProgressReportsCellKeys(t *testing.T) {
	p := schedProfile(1)
	var keys []string
	var lastDone int
	p.Progress = func(done, total int, elapsed time.Duration, key string) {
		if total != 5 {
			t.Fatalf("report %d/%d: total is not the panel's 5 cells", done, total)
		}
		keys = append(keys, key)
		lastDone = done
	}
	Fig3Panel(p, 4, 1)
	if len(keys) != 5 || lastDone != 5 {
		t.Fatalf("progress reported %d cells, last done %d, want 5, 5", len(keys), lastDone)
	}
	want := ps.ConfigKey(cellConfig(p, ps.SGD, 1, core.BNAsync, 1))
	if keys[0] != want {
		t.Fatalf("first progress key %q, want the SGD baseline's %q", keys[0], want)
	}
	for _, k := range keys {
		if len(k) != len(want) {
			t.Fatalf("short progress key %q", k)
		}
	}
}

// TestTelemetryWriteArtifacts: the trace and metrics writers land complete
// files (JSON and CSV shapes) that reflect the recorded cells.
func TestTelemetryWriteArtifacts(t *testing.T) {
	p := schedProfile(1)
	tel := NewTelemetry()
	p.Telemetry = tel
	Fig5Panel(p, 4, 1)
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.json")
	jsonPath := filepath.Join(dir, "metrics.json")
	csvPath := filepath.Join(dir, "metrics.csv")
	if err := tel.WriteTrace(tracePath); err != nil {
		t.Fatal(err)
	}
	if err := tel.WriteMetrics(jsonPath); err != nil {
		t.Fatal(err)
	}
	if err := tel.WriteMetrics(csvPath); err != nil {
		t.Fatal(err)
	}
	trace, _ := os.ReadFile(tracePath)
	if !bytes.HasPrefix(trace, []byte("[")) || !strings.Contains(string(trace), `"commit"`) {
		t.Fatal("trace file is not a Chrome trace-event array with commit spans")
	}
	mj, _ := os.ReadFile(jsonPath)
	if !strings.Contains(string(mj), `"measured"`) {
		t.Fatal("metrics JSON artifact lacks the measured meter group")
	}
	mc, _ := os.ReadFile(csvPath)
	if !strings.HasPrefix(string(mc), "cell,section,name,key,value\n") {
		t.Fatal("metrics CSV artifact lacks the header row")
	}
}

// TestTelemetryResumeFallback: a persisted cell interrupted before its
// result — whose checkpoints were taken WITHOUT telemetry — re-run under
// -resume with telemetry attached cannot restore those checkpoints
// (presence mismatch), so it falls back to a full re-run: same result, and
// the recorder holds the complete run's telemetry, not a truncated suffix.
func TestTelemetryResumeFallback(t *testing.T) {
	dir := t.TempDir()
	p := persistProfile(t, dir, false)
	orig := RunCell(p, ps.ASGD, 4, core.BNAsync, 1)
	key := ps.ConfigKey(cellConfig(p, ps.ASGD, 4, core.BNAsync, 1))
	rd, err := p.Store.Run(key)
	if err != nil {
		t.Fatal(err)
	}
	// Simulate the interruption: checkpoints survive, the result does not.
	if err := os.Remove(filepath.Join(rd.Dir(), "result.json")); err != nil {
		t.Fatal(err)
	}

	pr := persistProfile(t, dir, true)
	tel := NewTelemetry()
	pr.Telemetry = tel
	res := RunCell(pr, ps.ASGD, 4, core.BNAsync, 1)
	assertSameResult(t, "resume-fallback", orig, res)
	if tel.Cells() != 1 {
		t.Fatalf("recorded %d cells, want 1", tel.Cells())
	}
	trace, err := tel.TraceJSON()
	if err != nil {
		t.Fatal(err)
	}
	// A full-rerun trace starts at the beginning of the run: the epoch-0
	// launches are in it, which a restored suffix would lack.
	if !strings.Contains(string(trace), `"launch"`) || !strings.Contains(string(trace), `"barrier"`) {
		t.Fatal("fallback trace is missing launch/barrier events")
	}
}

// TestMetricsDumpLayout pins the -metrics-out layouts as bytes: a
// hand-built registry with one instrument of each kind, two series rows and
// two meters renders to these literal JSON and CSV documents. The
// instruments' struct tags are the JSON layout, so a renamed tag fails here
// even though two runs of the renamed code would agree with each other.
func TestMetricsDumpLayout(t *testing.T) {
	tel := NewTelemetry()
	rec := tel.attach(ps.Config{Algo: ps.ASGD, Workers: 2, Seed: 7}, "0123456789abcdef")
	rec.Bind()
	m := rec.Metrics
	m.Counter("commits").Add(3)
	g := m.Gauge("inflight")
	h := m.Histogram("staleness", []float64{0, 2})
	v := m.WorkerVec("drops", 2)
	g.Set(1.5)
	h.Observe(1)
	m.Sample(1, 250)
	g.Set(2.5)
	h.Observe(5)
	v.Inc(1)
	m.Sample(2, 500)
	rec.Meter("encode_ms").Observe(2.5)
	wr := rec.Meter("write_ms")
	wr.Observe(1)
	wr.Observe(4)

	const wantJSON = `{
  "cells": [
    {
      "label": "ASGD M=2 seed=7 0123456789ab",
      "key": "0123456789abcdef",
      "workers": 2,
      "metrics": {
        "counters": [
          {
            "name": "commits",
            "value": 3
          }
        ],
        "gauges": [
          {
            "name": "inflight",
            "value": 2.5
          }
        ],
        "histograms": [
          {
            "name": "staleness",
            "le": [
              0,
              2
            ],
            "counts": [
              0,
              1,
              1
            ],
            "count": 2,
            "sum": 6
          }
        ],
        "workers": [
          {
            "name": "drops",
            "per_worker": [
              0,
              1
            ]
          }
        ],
        "series": {
          "columns": [
            "epoch",
            "at_ms",
            "inflight"
          ],
          "rows": [
            [
              1,
              250,
              1.5
            ],
            [
              2,
              500,
              2.5
            ]
          ]
        }
      },
      "measured": [
        {
          "name": "encode_ms",
          "n": 1,
          "sum": 2.5,
          "max": 2.5
        },
        {
          "name": "write_ms",
          "n": 2,
          "sum": 5,
          "max": 4
        }
      ]
    }
  ]
}
`
	const wantCSV = `cell,section,name,key,value
ASGD M=2 seed=7 0123456789ab,counter,commits,,3
ASGD M=2 seed=7 0123456789ab,gauge,inflight,,2.5
ASGD M=2 seed=7 0123456789ab,hist,staleness,le_0,0
ASGD M=2 seed=7 0123456789ab,hist,staleness,le_2,1
ASGD M=2 seed=7 0123456789ab,hist,staleness,le_inf,1
ASGD M=2 seed=7 0123456789ab,hist,staleness,count,2
ASGD M=2 seed=7 0123456789ab,hist,staleness,sum,6
ASGD M=2 seed=7 0123456789ab,worker,drops,w0,0
ASGD M=2 seed=7 0123456789ab,worker,drops,w1,1
ASGD M=2 seed=7 0123456789ab,series,epoch_1,at_ms,250
ASGD M=2 seed=7 0123456789ab,series,epoch_1,inflight,1.5
ASGD M=2 seed=7 0123456789ab,series,epoch_2,at_ms,500
ASGD M=2 seed=7 0123456789ab,series,epoch_2,inflight,2.5
ASGD M=2 seed=7 0123456789ab,measured,encode_ms,n,1
ASGD M=2 seed=7 0123456789ab,measured,encode_ms,sum,2.5
ASGD M=2 seed=7 0123456789ab,measured,encode_ms,max,2.5
ASGD M=2 seed=7 0123456789ab,measured,write_ms,n,2
ASGD M=2 seed=7 0123456789ab,measured,write_ms,sum,5
ASGD M=2 seed=7 0123456789ab,measured,write_ms,max,4
`
	got, err := tel.MetricsJSON(true)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != wantJSON {
		t.Fatalf("metrics JSON:\n%s\nwant:\n%s", got, wantJSON)
	}
	if got := string(tel.metricsCSV()); got != wantCSV {
		t.Fatalf("metrics CSV:\n%s\nwant:\n%s", got, wantCSV)
	}
}
