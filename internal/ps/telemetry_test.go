package ps

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"testing"

	"lcasgd/internal/scenario"
	"lcasgd/internal/snapshot"
	"lcasgd/internal/telemetry"
)

// telemetryBytes renders a recorder the way the determinism contract is
// stated: the Chrome trace bytes and the deterministic metrics JSON.
func telemetryBytes(t *testing.T, rec *telemetry.Recorder, workers int) ([]byte, []byte) {
	t.Helper()
	var buf bytes.Buffer
	if err := telemetry.WriteChromeTrace(&buf, []telemetry.TraceRun{{Name: "run", Workers: workers, Events: rec.Events}}); err != nil {
		t.Fatalf("render trace: %v", err)
	}
	js, err := json.Marshal(rec.Metrics)
	if err != nil {
		t.Fatalf("marshal metrics: %v", err)
	}
	return buf.Bytes(), js
}

// telemetryAlgos is the cross-family subset the telemetry suites sweep: a
// per-worker commit path (ASGD), the barrier Apply path (SSGD), server-side
// strategy state (LC-ASGD), and decentralized gossip (AD-PSGD).
var telemetryAlgos = []Algo{ASGD, SSGD, LCASGD, ADPSGD}

// TestTelemetryBackendByteIdentity extends the backend-equivalence contract
// to the observability layer: the recorded trace and the deterministic
// metrics registry must be byte-identical whether the run executed on the
// sequential or the concurrent backend — under churn and with (sinkless)
// checkpoint barriers in the timeline.
func TestTelemetryBackendByteIdentity(t *testing.T) {
	scns := append([]*scenario.Scenario{nil}, equivalenceScenarios()...)
	for _, algo := range telemetryAlgos {
		for _, scn := range scns {
			name := "none"
			if scn != nil {
				name = scn.Name
			}
			label := string(algo) + "/" + name
			run := func(kind BackendKind) (*telemetry.Recorder, Result) {
				env := tinyEnvSeeded(algo, 4, 2)
				env.Cfg.Backend = kind
				env.Cfg.Scenario = scn
				env.Cfg.CheckpointEvery = 1
				env.Telemetry = telemetry.NewRecorder()
				return env.Telemetry, Run(env)
			}
			recSeq, resSeq := run(BackendSequential)
			recCon, resCon := run(BackendConcurrent)
			assertResultsEqual(t, label, resSeq, resCon)
			trSeq, mSeq := telemetryBytes(t, recSeq, 4)
			trCon, mCon := telemetryBytes(t, recCon, 4)
			if !bytes.Equal(trSeq, trCon) {
				t.Fatalf("%s: trace bytes differ across backends (%d vs %d bytes)", label, len(trSeq), len(trCon))
			}
			if !bytes.Equal(mSeq, mCon) {
				t.Fatalf("%s: metrics bytes differ across backends:\n%s\n%s", label, mSeq, mCon)
			}
			if len(recSeq.Events) == 0 {
				t.Fatalf("%s: run recorded no events", label)
			}
		}
	}
}

// TestTelemetryResumeByteIdentity extends the resume contract: telemetry
// state is checkpointed with the run (sections secTelMetrics/secTelTrace),
// so a run killed at a barrier and resumed with a fresh recorder must end
// with trace and metrics bytes identical to the uninterrupted run's — the
// restored prefix plus identically replayed remainder.
func TestTelemetryResumeByteIdentity(t *testing.T) {
	for _, algo := range telemetryAlgos {
		for _, scn := range append([]*scenario.Scenario{nil}, equivalenceScenarios()[0]) {
			name := "none"
			if scn != nil {
				name = scn.Name
			}
			label := string(algo) + "/" + name
			env := ckptEnv(algo, 4, 3, BackendSequential, scn)
			env.Telemetry = telemetry.NewRecorder()
			full, cks := runCapturing(env)
			if len(cks) == 0 {
				t.Fatalf("%s: no checkpoints emitted", label)
			}
			wantTrace, wantMetrics := telemetryBytes(t, env.Telemetry, 4)
			for _, ci := range []int{0, len(cks) - 1} {
				renv := ckptEnv(algo, 4, 3, BackendConcurrent, scn)
				renv.Telemetry = telemetry.NewRecorder()
				res, err := Resume(renv, cks[ci].Data)
				if err != nil {
					t.Fatalf("%s: resume from barrier %d: %v", label, ci, err)
				}
				assertResultsEqual(t, label, full, res)
				gotTrace, gotMetrics := telemetryBytes(t, renv.Telemetry, 4)
				if !bytes.Equal(wantTrace, gotTrace) {
					t.Fatalf("%s: trace bytes differ after resume from barrier %d (%d vs %d bytes)",
						label, ci, len(wantTrace), len(gotTrace))
				}
				if !bytes.Equal(wantMetrics, gotMetrics) {
					t.Fatalf("%s: metrics bytes differ after resume from barrier %d:\n%s\n%s",
						label, ci, wantMetrics, gotMetrics)
				}
			}
		}
	}
}

// TestTelemetryRefusesPresenceMismatch pins the failure mode a silent
// restore would hide: resuming a telemetry-free checkpoint with a recorder
// attached (or vice versa) must error, so callers fall back to a full rerun
// instead of producing telemetry missing its pre-barrier prefix.
func TestTelemetryRefusesPresenceMismatch(t *testing.T) {
	env := ckptEnv(ASGD, 2, 2, BackendSequential, nil)
	_, cks := runCapturing(env) // no recorder attached
	renv := ckptEnv(ASGD, 2, 2, BackendSequential, nil)
	renv.Telemetry = telemetry.NewRecorder()
	if _, err := Resume(renv, cks[0].Data); err == nil || !strings.Contains(err.Error(), "telemetry presence") {
		t.Fatalf("resume with recorder onto telemetry-free checkpoint: err = %v, want presence error", err)
	}
	// The failed attempt must roll the recorder back to pristine, so the
	// caller's fallback — a full re-run with the same recorder — binds it
	// cleanly and records the whole run (the trainer's resume path does
	// exactly this).
	if renv.Telemetry.Bound() {
		t.Fatal("failed resume left the recorder bound")
	}
	Run(renv)
	if !renv.Telemetry.Bound() || len(renv.Telemetry.Events) == 0 {
		t.Fatal("fallback rerun did not record into the rolled-back recorder")
	}

	env2 := ckptEnv(ASGD, 2, 2, BackendSequential, nil)
	env2.Telemetry = telemetry.NewRecorder()
	_, cks2 := runCapturing(env2)
	renv2 := ckptEnv(ASGD, 2, 2, BackendSequential, nil)
	if _, err := Resume(renv2, cks2[0].Data); err == nil || !strings.Contains(err.Error(), "telemetry presence") {
		t.Fatalf("resume without recorder onto telemetry checkpoint: err = %v, want presence error", err)
	}
}

// TestTelemetryIsPassive pins the observability layer's first law: a run
// with a recorder attached returns the bit-identical Result of the same run
// without one, churn and checkpoint barriers included.
func TestTelemetryIsPassive(t *testing.T) {
	for _, algo := range telemetryAlgos {
		env := tinyEnvSeeded(algo, 4, 2)
		env.Cfg.Scenario = equivalenceScenarios()[0]
		env.Cfg.CheckpointEvery = 1
		bare := Run(env)
		env2 := tinyEnvSeeded(algo, 4, 2)
		env2.Cfg.Scenario = equivalenceScenarios()[0]
		env2.Cfg.CheckpointEvery = 1
		env2.Telemetry = telemetry.NewRecorder()
		assertResultsEqual(t, string(algo), bare, Run(env2))
	}
}

// TestTelemetryScenarioEventsInTrace pins the churn-visibility acceptance
// criterion: every applied scenario event appears as a typed trace event on
// its worker lane, partition-window commit drops are traced and counted,
// and the scenario counter agrees with the Result's.
func TestTelemetryScenarioEventsInTrace(t *testing.T) {
	scn := &scenario.Scenario{
		Name: "churn",
		Events: []scenario.Event{
			{At: 30, Kind: scenario.PhaseShift, Worker: -1, CompScale: 1.5, CommScale: 1.5},
			{At: 40, Kind: scenario.Crash, Worker: 1},
			{At: 50, Kind: scenario.Partition, Worker: 2},
			{At: 120, Kind: scenario.Recover, Worker: 1},
			{At: 200, Kind: scenario.Heal, Worker: 2},
		},
	}
	env := tinyEnvSeeded(ASGD, 4, 2)
	env.Cfg.Scenario = scn
	env.Telemetry = telemetry.NewRecorder()
	res := Run(env)

	counts := map[telemetry.Kind]int{}
	for _, ev := range env.Telemetry.Events {
		counts[ev.Kind]++
	}
	for _, k := range []telemetry.Kind{
		telemetry.KPhaseShift, telemetry.KCrash, telemetry.KPartition,
		telemetry.KRecover, telemetry.KHeal,
	} {
		if counts[k] != 1 {
			t.Fatalf("trace has %d %v events, want 1", counts[k], k)
		}
	}
	if counts[telemetry.KCommit] == 0 || counts[telemetry.KLaunch] == 0 || counts[telemetry.KDispatch] == 0 {
		t.Fatalf("trace missing lifecycle events: %v", counts)
	}
	if counts[telemetry.KDrop] == 0 {
		t.Fatal("partition window dropped no commits in the trace")
	}
	m := env.Telemetry.Metrics
	var scnCounter *telemetry.Counter
	var drops *telemetry.WorkerVec
	for _, c := range m.Counters {
		if c.Name == "scenario_events_applied" {
			scnCounter = c
		}
	}
	for _, v := range m.Vecs {
		if v.Name == "partition_drops_per_worker" {
			drops = v
		}
	}
	if scnCounter == nil || int(scnCounter.V) != res.ScenarioEvents {
		t.Fatalf("scenario counter %v, result says %d", scnCounter, res.ScenarioEvents)
	}
	if drops == nil || drops.N[2] == 0 {
		t.Fatalf("partitioned worker 2 recorded no drops: %v", drops)
	}
	for _, ev := range env.Telemetry.Events {
		if ev.Kind == telemetry.KCommit && ev.Dur <= 0 {
			t.Fatalf("commit span without duration: %+v", ev)
		}
	}
}

// TestLCASGDOneDispatchPerLaunch: an LC-ASGD iteration is one gradient
// task, the commit scaling it, so under random crash/recover churn every
// worker's trace holds exactly one dispatch per launch.
func TestLCASGDOneDispatchPerLaunch(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		env := randomizedEnv(LCASGD, 8, 3, seed, 120, 12)
		env.Telemetry = telemetry.NewRecorder()
		Run(env)
		launches, dispatches := make([]int, 8), make([]int, 8)
		crashes := 0
		for _, ev := range env.Telemetry.Events {
			switch ev.Kind {
			case telemetry.KLaunch:
				launches[ev.Worker]++
			case telemetry.KDispatch:
				dispatches[ev.Worker]++
			case telemetry.KCrash:
				crashes++
			}
		}
		if crashes == 0 {
			t.Fatalf("seed %d: the timeline crashed no worker", seed)
		}
		if !slices.Equal(launches, dispatches) || slices.Max(launches) == 0 {
			t.Fatalf("seed %d: launches %v, dispatches %v per worker, want one dispatch per launch", seed, launches, dispatches)
		}
	}
}

// TestTelemetryBarrierEventsCheckpointed pins that barrier spans and drain
// durations are observed before the snapshot serializes: a run with
// checkpoint barriers must trace one KBarrier span and one KCheckpoint
// instant per barrier, with the barrier counter to match.
func TestTelemetryBarrierEventsCheckpointed(t *testing.T) {
	env := ckptEnv(ASGD, 4, 3, BackendSequential, nil)
	env.Telemetry = telemetry.NewRecorder()
	_, cks := runCapturing(env)
	barriers, ckpts := 0, 0
	for _, ev := range env.Telemetry.Events {
		switch ev.Kind {
		case telemetry.KBarrier:
			barriers++
		case telemetry.KCheckpoint:
			ckpts++
		}
	}
	if barriers != len(cks) || ckpts != len(cks) {
		t.Fatalf("traced %d barriers, %d checkpoints; sink saw %d", barriers, ckpts, len(cks))
	}
	var hist *telemetry.Histogram
	for _, h := range env.Telemetry.Metrics.Hists {
		if h.Name == "barrier_drain_ms" {
			hist = h
		}
	}
	if hist == nil || int(hist.Total) != len(cks) {
		t.Fatalf("drain histogram %+v, want %d observations", hist, len(cks))
	}
	// Measured meters exist and saw the emissions, but stay out of the
	// deterministic dump (they are wall-clock).
	sawBytes := false
	for _, mt := range env.Telemetry.Meters() {
		if (mt.Name == "ckpt_full_bytes" || mt.Name == "ckpt_delta_bytes") && mt.N > 0 {
			sawBytes = true
		}
	}
	if !sawBytes {
		t.Fatal("no checkpoint byte meters recorded")
	}
}

// TestTelemetryInstrumentsAreTheTraceFolded pins that the event-counting
// instruments say nothing the trace does not: every counter, worker vector
// and histogram in the registry equals, bit for bit and sums included, a
// recount of rec.Events written here from the Kind docs alone. It covers
// each telemetry algorithm on both backends under partition, heal, crash and
// recover with a barrier every epoch, on the straight-through run and on
// the resumed side of its first barrier, whose registry and trace prefix
// both came out of the checkpoint.
func TestTelemetryInstrumentsAreTheTraceFolded(t *testing.T) {
	var scn *scenario.Scenario
	for _, s := range equivalenceScenarios() {
		if s.Name == "partition-heal" {
			scn = s
		}
	}
	for _, algo := range telemetryAlgos {
		for _, kind := range []BackendKind{BackendSequential, BackendConcurrent} {
			label := string(algo) + "/" + string(kind)
			env := ckptEnv(algo, 4, 3, kind, scn)
			env.Telemetry = telemetry.NewRecorder()
			_, cks := runCapturing(env)
			if len(cks) == 0 {
				t.Fatalf("%s: no checkpoints emitted", label)
			}
			assertInstrumentsFoldTrace(t, label, env.Telemetry, 4)
			renv := ckptEnv(algo, 4, 3, kind, scn)
			renv.Telemetry = telemetry.NewRecorder()
			if _, err := Resume(renv, cks[0].Data); err != nil {
				t.Fatalf("%s: resume: %v", label, err)
			}
			assertInstrumentsFoldTrace(t, label+"/resumed", renv.Telemetry, 4)
		}
	}
}

// assertInstrumentsFoldTrace recounts rec's trace into the instruments the
// engine registers and requires the registry to hold exactly those values.
func assertInstrumentsFoldTrace(t *testing.T, label string, rec *telemetry.Recorder, workers int) {
	t.Helper()
	counters := map[string]uint64{"scenario_events_applied": 0, "checkpoint_barriers": 0}
	vecs := map[string][]uint64{
		"commits_per_worker":         make([]uint64, workers),
		"partition_drops_per_worker": make([]uint64, workers),
		"gossips_per_worker":         make([]uint64, workers),
	}
	hists := map[string]*telemetry.Histogram{
		"staleness":        {Bounds: []float64{0, 1, 2, 4, 8, 16, 32, 64, 128}, Counts: make([]uint64, 10)},
		"barrier_drain_ms": {Bounds: []float64{1, 2.5, 5, 10, 25, 50, 100, 250, 1000}, Counts: make([]uint64, 10)},
		"compensation_scale": {
			Bounds: []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.999999}, Counts: make([]uint64, 11),
		},
	}
	observe := func(name string, v float64) {
		h := hists[name]
		h.Counts[sort.SearchFloat64s(h.Bounds, v)]++ // first bound ≥ v, or +Inf
		h.Total++
		h.Sum += v
	}
	for _, ev := range rec.Events {
		switch ev.Kind {
		case telemetry.KCommit:
			vecs["commits_per_worker"][ev.Worker]++
			observe("staleness", float64(ev.A))
		case telemetry.KDrop:
			vecs["partition_drops_per_worker"][ev.Worker]++
		case telemetry.KGossip:
			vecs["gossips_per_worker"][ev.Worker]++
			if ev.A != -1 {
				observe("staleness", float64(ev.B))
			}
		case telemetry.KCrash, telemetry.KRecover, telemetry.KJoin, telemetry.KLeave,
			telemetry.KPartition, telemetry.KHeal, telemetry.KPhaseShift:
			counters["scenario_events_applied"]++
		case telemetry.KBarrier:
			counters["checkpoint_barriers"]++
			observe("barrier_drain_ms", ev.Dur)
		case telemetry.KCompensate:
			observe("compensation_scale", float64(ev.B)/1e6)
		}
	}
	if counters["scenario_events_applied"] == 0 || counters["checkpoint_barriers"] == 0 {
		t.Fatalf("%s: trace folds to %v; the timeline exercised nothing", label, counters)
	}
	m := rec.Metrics
	if len(m.Counters) != len(counters) || len(m.Vecs) != len(vecs) || len(m.Hists) != len(hists) {
		t.Fatalf("%s: registry has %d counters, %d vectors, %d histograms; the trace folds into %d, %d, %d",
			label, len(m.Counters), len(m.Vecs), len(m.Hists), len(counters), len(vecs), len(hists))
	}
	for _, c := range m.Counters {
		if want, ok := counters[c.Name]; !ok || c.V != want {
			t.Fatalf("%s: counter %s = %d, the trace folds to %d", label, c.Name, c.V, want)
		}
	}
	for _, v := range m.Vecs {
		if want, ok := vecs[v.Name]; !ok || !slices.Equal(v.N, want) {
			t.Fatalf("%s: worker vector %s = %v, the trace folds to %v", label, v.Name, v.N, want)
		}
	}
	for _, h := range m.Hists {
		want, ok := hists[h.Name]
		if !ok || !slices.Equal(h.Bounds, want.Bounds) || !slices.Equal(h.Counts, want.Counts) ||
			h.Total != want.Total || math.Float64bits(h.Sum) != math.Float64bits(want.Sum) {
			t.Fatalf("%s: histogram %s = %+v, the trace folds to %+v", label, h.Name, *h, want)
		}
	}
}

// resealSection returns the full container data with its first section of
// the given kind replaced by edit's result, resealed so the checksums pass.
func resealSection(t *testing.T, data []byte, kind uint32, edit func(p []byte) []byte) []byte {
	t.Helper()
	return resealSectionOf(t, data, kind, false, edit)
}

// resealLastSection is resealSection on the last section of the kind: the
// newest chunk of a chunked list.
func resealLastSection(t *testing.T, data []byte, kind uint32, edit func(p []byte) []byte) []byte {
	t.Helper()
	return resealSectionOf(t, data, kind, true, edit)
}

func resealSectionOf(t *testing.T, data []byte, kind uint32, last bool, edit func(p []byte) []byte) []byte {
	t.Helper()
	c, err := snapshot.DecodeContainer(data)
	if err != nil {
		t.Fatal(err)
	}
	at := -1
	for i, s := range c.Sections {
		if s.ID.Kind == kind && (at < 0 || last) {
			at = i
		}
	}
	if at < 0 {
		t.Fatalf("container has no section of kind %d", kind)
	}
	c.Sections[at].Payload, c.Sections[at].Sum = edit(bytes.Clone(c.Sections[at].Payload)), 0
	out, err := snapshot.EncodeContainer(c)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// resumeMustRefuse resumes ASGD's checkpoint env from data with a fresh
// recorder and requires an error, not a panic and not a restored run.
func resumeMustRefuse(t *testing.T, what string, data []byte) {
	t.Helper()
	defer func() {
		if p := recover(); p != nil {
			t.Fatalf("%s: Resume panicked: %v", what, p)
		}
	}()
	env := ckptEnv(ASGD, 4, 3, BackendSequential, nil)
	env.Telemetry = telemetry.NewRecorder()
	if _, err := Resume(env, data); err == nil {
		t.Fatalf("%s: accepted", what)
	}
}

// TestResumeRefusesMalformedGaugeRow: a gauge-series row holds exactly one
// value per registered gauge. A checkpoint whose last row holds one more or
// one fewer is refused at resume; accepted, the longer row sent the resumed
// cell's CSV metrics dump past the gauge names (an index-out-of-range panic
// in Metrics.AppendCSV).
func TestResumeRefusesMalformedGaugeRow(t *testing.T) {
	env := ckptEnv(ASGD, 4, 3, BackendSequential, nil)
	env.Telemetry = telemetry.NewRecorder()
	_, cks := runCapturing(env)
	if len(cks) < 2 {
		t.Fatalf("%d checkpoints emitted, want 2", len(cks))
	}
	gauges := len(env.Telemetry.Metrics.Gauges)
	for _, grow := range []int{1, -1} {
		data := resealSection(t, cks[1].Data, secTelMetrics, func(p []byte) []byte {
			at := len(p) - 8*(gauges+1) // the series ends with the last row's values
			if n := binary.LittleEndian.Uint64(p[at:]); n != uint64(gauges) {
				t.Fatalf("word at %d of the series section is %d, not the last row's %d values", at, n, gauges)
			}
			binary.LittleEndian.PutUint64(p[at:], uint64(gauges+grow))
			if grow > 0 {
				return append(p, make([]byte, 8*grow)...)
			}
			return p[:len(p)+8*grow]
		})
		resumeMustRefuse(t, fmt.Sprintf("a gauge row of %d values for %d gauges", gauges+grow, gauges), data)
	}
}

// TestResumeRefusesHostileTraceEvents: the end-of-run fold counts commits,
// drops and gossips into per-worker slots, so a restore refuses a trace
// event of an unknown kind, on a lane outside [-1, M), or on the run lane
// (-1) for a per-worker kind — including the words that alias a valid kind
// or rank once narrowed to the event's fields.
func TestResumeRefusesHostileTraceEvents(t *testing.T) {
	env := ckptEnv(ASGD, 4, 3, BackendSequential, nil)
	env.Telemetry = telemetry.NewRecorder()
	_, cks := runCapturing(env)
	data := cks[0].Data
	renv := ckptEnv(ASGD, 4, 3, BackendSequential, nil)
	renv.Telemetry = telemetry.NewRecorder()
	if _, err := Resume(renv, resealSection(t, data, secTelTrace, func(p []byte) []byte { return p })); err != nil {
		t.Fatalf("resealed but untouched trace refused: %v", err)
	}
	// Chunk 0 of the trace: its event count, then six words per event.
	find := func(p []byte, k telemetry.Kind) int {
		for at := 8; at+48 <= len(p); at += 48 {
			if binary.LittleEndian.Uint64(p[at:]) == uint64(k) {
				return at
			}
		}
		t.Fatalf("trace chunk 0 has no %v event", k)
		return 0
	}
	for _, tc := range []struct {
		on          telemetry.Kind
		word        int // 0 the kind, 1 the worker
		value       int64
		description string
	}{
		{telemetry.KCommit, 0, int64(telemetry.NumKinds), "kind past the last"},
		{telemetry.KCommit, 0, 256 + int64(telemetry.KCommit), "kind aliasing commit in a byte"},
		{telemetry.KCommit, 1, 4, "commit on worker M"},
		{telemetry.KCommit, 1, -1, "commit on the run lane"},
		{telemetry.KCommit, 1, 1 << 32, "commit on a worker aliasing 0 in 32 bits"},
		{telemetry.KLaunch, 1, -2, "launch on lane -2"},
	} {
		hostile := resealSection(t, data, secTelTrace, func(p []byte) []byte {
			binary.LittleEndian.PutUint64(p[find(p, tc.on)+8*tc.word:], uint64(tc.value))
			return p
		})
		resumeMustRefuse(t, tc.description, hostile)
	}
}

// TestResumeRefusesNonFiniteTimes: every time, duration and gauge value a
// run records is finite and not negative, so a restore refuses a trace event
// or a gauge row with any other. Accepted, a barrier event lasting NaN ms
// reached the end-of-run fold's barrier_drain_ms histogram, and the metrics
// dump's JSON encoder failed on it.
func TestResumeRefusesNonFiniteTimes(t *testing.T) {
	env := ckptEnv(ASGD, 4, 3, BackendSequential, nil)
	env.Telemetry = telemetry.NewRecorder()
	_, cks := runCapturing(env)
	data := cks[0].Data
	renv := ckptEnv(ASGD, 4, 3, BackendSequential, nil)
	renv.Telemetry = telemetry.NewRecorder()
	if _, err := Resume(renv, resealLastSection(t, data, secTelTrace, func(p []byte) []byte { return p })); err != nil {
		t.Fatalf("resealed but untouched trace refused: %v", err)
	}
	gauges := len(env.Telemetry.Metrics.Gauges)
	for _, tc := range []struct {
		section     uint32
		word        int // 8-byte word of the edited record: an event's or the series' last row's
		value       float64
		description string
	}{
		{secTelTrace, 3, math.NaN(), "barrier lasting NaN ms"},
		{secTelTrace, 3, -1, "barrier lasting -1 ms"},
		{secTelTrace, 2, math.Inf(1), "barrier at +Inf"},
		{secTelTrace, 2, -0.5, "barrier at -0.5 ms"},
		{secTelMetrics, 1, math.NaN(), "gauge row at NaN"},
		{secTelMetrics, 3, math.NaN(), "gauge value NaN"},
		{secTelMetrics, 3 + gauges - 1, math.Inf(-1), "gauge value -Inf"},
	} {
		hostile := resealLastSection(t, data, tc.section, func(p []byte) []byte {
			// The trace chunk is its event count, then six words per event
			// (kind, worker, at, dur, a, b); the barrier closes the newest
			// chunk but for the checkpoint event after it. The series ends
			// with its last row: epoch, at, the values' count, the values.
			at := len(p) - 8*(3+gauges)
			if tc.section == secTelTrace {
				at = len(p) - 2*48
				if k := binary.LittleEndian.Uint64(p[at:]); k != uint64(telemetry.KBarrier) {
					t.Fatalf("event before the trace's last is of kind %d, not a barrier", k)
				}
			}
			binary.LittleEndian.PutUint64(p[at+8*tc.word:], math.Float64bits(tc.value))
			return p
		})
		resumeMustRefuse(t, tc.description, hostile)
	}
}

// BenchmarkTelemetryOverhead measures the steady-state commit path with the
// telemetry layer disabled (nil recorder — must stay 0 allocs/op, the
// CI bench-smoke guard) and enabled (the trace append + instrument cost).
func BenchmarkTelemetryOverhead(b *testing.B) {
	for _, enabled := range []bool{false, true} {
		name := "disabled"
		if enabled {
			name = "enabled"
		}
		b.Run(name, func(b *testing.B) {
			env := tinyEnvSeeded(ASGD, 2, 2)
			env.Cfg = env.Cfg.withDefaults()
			if enabled {
				env.Telemetry = telemetry.NewRecorder()
			}
			e := newEngine(env, strategyFor(env.Cfg))
			defer e.close()
			e.strategy.Setup(e)
			e.srv.target = 0 // park relaunches so the commit path dominates
			grad := make([]float64, e.NParams())
			for i := range grad {
				grad[i] = 1e-3
			}
			e.Commit(0, grad, 0) // warm: first commit records the epoch-0 point
			// Join that point's evaluation: it runs off the loop, and its
			// allocations would otherwise be charged to the commits below.
			e.rec.drain()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Commit(0, grad, 0)
			}
		})
	}
}
