package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestHistogramBuckets(t *testing.T) {
	m := NewMetrics()
	h := m.Histogram("staleness", []float64{0, 1, 4})
	for _, v := range []float64{0, 0.5, 1, 3, 4, 100} {
		h.Observe(v)
	}
	want := []uint64{1, 2, 2, 1} // le 0 | le 1 | le 4 | +Inf
	for i, n := range want {
		if h.Counts[i] != n {
			t.Fatalf("bucket %d = %d, want %d (counts %v)", i, h.Counts[i], n, h.Counts)
		}
	}
	if h.Total != 6 || h.Sum != 108.5 {
		t.Fatalf("total=%d sum=%v, want 6, 108.5", h.Total, h.Sum)
	}
}

func TestSampleCapturesGaugesInOrder(t *testing.T) {
	m := NewMetrics()
	a := m.Gauge("a")
	b := m.Gauge("b")
	a.Set(1)
	b.Set(2)
	m.Sample(3, 450)
	a.Set(7)
	m.Sample(4, 900)
	if len(m.Series) != 2 {
		t.Fatalf("series rows: %d", len(m.Series))
	}
	if got := m.Series[0].Values; got[0] != 1 || got[1] != 2 {
		t.Fatalf("row 0 values %v", got)
	}
	if got := m.Series[1].Values; got[0] != 7 || got[1] != 2 {
		t.Fatalf("row 1 values %v", got)
	}
}

func TestDeterministicJSONIsStableAndExcludesMeters(t *testing.T) {
	build := func() *Recorder {
		r := NewRecorder()
		r.Metrics.Counter("c").Add(3)
		r.Metrics.Gauge("g").Set(1.5)
		r.Metrics.Histogram("h", []float64{1, 2}).Observe(1.5)
		r.Metrics.WorkerVec("v", 2).Inc(1)
		r.Metrics.Sample(1, 100)
		return r
	}
	r1, r2 := build(), build()
	r2.Meter("wall_ms").Observe(123.4) // measured group must not leak into the deterministic dump
	b1, err1 := json.Marshal(r1.Metrics)
	b2, err2 := json.Marshal(r2.Metrics)
	if err1 != nil || err2 != nil {
		t.Fatalf("marshal metrics: %v, %v", err1, err2)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("deterministic dumps differ:\n%s\n%s", b1, b2)
	}
	if strings.Contains(string(b1), "wall_ms") {
		t.Fatalf("meter leaked into deterministic dump: %s", b1)
	}
	var doc map[string]any
	if err := json.Unmarshal(b1, &doc); err != nil {
		t.Fatalf("dump is not valid JSON: %v", err)
	}
}

func TestRecorderBindOnce(t *testing.T) {
	r := NewRecorder()
	if r.Bound() {
		t.Fatal("fresh recorder reports bound")
	}
	r.Bind()
	if !r.Bound() {
		t.Fatal("bound recorder reports unbound")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("second Bind did not panic")
		}
	}()
	r.Bind()
}

func TestMeterRegistryReturnsSameInstance(t *testing.T) {
	r := NewRecorder()
	a := r.Meter("x")
	b := r.Meter("x")
	if a != b {
		t.Fatal("Meter returned distinct instances for one name")
	}
	a.Observe(2)
	a.Observe(5)
	if b.N != 2 || b.Sum != 7 || b.Max != 5 {
		t.Fatalf("meter state n=%d sum=%v max=%v", b.N, b.Sum, b.Max)
	}
}

func TestChromeTraceRendersLanesAndKinds(t *testing.T) {
	run := TraceRun{
		Name:    "cell-a",
		Workers: 2,
		Events: []Event{
			{Kind: KLaunch, Worker: 0, At: 1},
			{Kind: KCommit, Worker: 0, At: 1, Dur: 9.5, A: 3},
			{Kind: KCrash, Worker: 1, At: 4},
			{Kind: KPhaseShift, Worker: -1, At: 5, A: 1_500_000, B: 750_000},
			{Kind: KBarrier, Worker: -1, At: 10, Dur: 2},
			{Kind: KCheckpoint, Worker: -1, At: 12, A: 2},
		},
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, []TraceRun{run}); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("trace is not a valid JSON array: %v\n%s", err, buf.String())
	}
	// Metadata: process name + 3 lanes (2 workers + run), then the 6 events.
	if len(events) != 4+6 {
		t.Fatalf("trace has %d records, want 10", len(events))
	}
	byName := map[string]map[string]any{}
	for _, ev := range events {
		byName[ev["name"].(string)] = ev
	}
	commit := byName["commit"]
	if commit["ph"] != "X" || commit["dur"].(float64) != 9500 || commit["ts"].(float64) != 1000 {
		t.Fatalf("commit span rendered wrong: %v", commit)
	}
	if args := commit["args"].(map[string]any); args["staleness"].(float64) != 3 {
		t.Fatalf("commit args: %v", args)
	}
	if crash := byName["crash"]; crash["ph"] != "i" || crash["tid"].(float64) != 1 {
		t.Fatalf("crash instant rendered wrong: %v", crash)
	}
	// Run-scoped events land on the lane after the last worker.
	for _, name := range []string{"phase-shift", "barrier", "checkpoint"} {
		if ev := byName[name]; ev["tid"].(float64) != 2 {
			t.Fatalf("%s not on run lane: %v", name, ev)
		}
	}
	if ps := byName["phase-shift"]["args"].(map[string]any); ps["comp_scale"].(float64) != 1.5 {
		t.Fatalf("phase-shift scales not unpacked: %v", ps)
	}

	// Byte determinism of the exporter itself.
	var buf2 bytes.Buffer
	if err := WriteChromeTrace(&buf2, []TraceRun{run}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("two exports of the same trace differ")
	}
}

func TestCSVDumpStable(t *testing.T) {
	m := NewMetrics()
	m.Counter("commits").Add(2)
	m.Gauge("inflight").Set(3)
	m.Histogram("drain_ms", []float64{10}).Observe(4)
	m.WorkerVec("drops", 2).Inc(0)
	m.Sample(1, 250)
	var sb strings.Builder
	m.AppendCSV(&sb, "cell,with comma")
	AppendMetersCSV(&sb, "cell,with comma", []*Meter{{Name: "enc_ms", N: 1, Sum: 2.5, Max: 2.5}})
	out := sb.String()
	for _, want := range []string{
		`"cell,with comma",counter,commits,,2`,
		"hist,drain_ms,le_10,1",
		"hist,drain_ms,le_inf,0",
		"worker,drops,w0,1",
		"series,epoch_1,at_ms,250",
		"series,epoch_1,inflight,3",
		"measured,enc_ms,sum,2.5",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("CSV missing %q:\n%s", want, out)
		}
	}
}
