package ps

import (
	"bytes"
	"encoding/binary"
	"maps"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"lcasgd/internal/cluster"
	"lcasgd/internal/scenario"
	"lcasgd/internal/snapshot"
)

// runCapturing executes env, collecting every checkpoint the barriers emit.
// Delta checkpoints are materialized against the raw chain since the last
// full — the emitted containers, not previously materialized ones, because a
// delta's BaseSum names the container that was actually emitted — so every
// returned Checkpoint.Data is a self-contained snapshot Resume accepts.
func runCapturing(env Env) (Result, []Checkpoint) {
	var cks []Checkpoint
	var chain [][]byte
	env.CheckpointSink = func(ck Checkpoint) error {
		if ck.Full {
			chain = chain[:0]
		}
		chain = append(chain, ck.Data)
		if !ck.Full {
			data, err := snapshot.Materialize(chain...)
			if err != nil {
				return err
			}
			ck.Data = data
		}
		cks = append(cks, ck)
		return nil
	}
	return Run(env), cks
}

// ckptEnv is tinyEnvSeeded with a checkpoint barrier every epoch.
func ckptEnv(algo Algo, workers, epochs int, kind BackendKind, scn *scenario.Scenario) Env {
	env := tinyEnvSeeded(algo, workers, epochs)
	env.Cfg.CheckpointEvery = 1
	env.Cfg.Backend = kind
	env.Cfg.Scenario = scn
	return env
}

// TestResumeEquivalence is the persistence subsystem's central guarantee,
// the analogue of TestBackendEquivalence for the time axis: for every
// algorithm, both execution backends, and churning scenarios (crashes,
// elastic resizes, network partitions), a run checkpointed at a quiescent
// barrier and resumed from the serialized bytes finishes with a Result that
// is float-bit-identical to the run that executed straight through — curve
// points, virtual clock, staleness accounting and predictor traces
// included. Resumes are additionally crossed over to the other backend,
// proving a sequential checkpoint restores onto concurrent lanes and vice
// versa.
func TestResumeEquivalence(t *testing.T) {
	scns := append([]*scenario.Scenario{nil}, equivalenceScenarios()...)
	for _, algo := range allAlgos {
		for _, kind := range []BackendKind{BackendSequential, BackendConcurrent} {
			for _, scn := range scns {
				m := 4
				if algo == SGD {
					m = 1
				}
				name := "none"
				if scn != nil {
					name = scn.Name
				}
				label := string(algo) + "/" + string(kind) + "/" + name
				full, cks := runCapturing(ckptEnv(algo, m, 3, kind, scn))
				if len(cks) == 0 {
					t.Fatalf("%s: no checkpoints emitted", label)
				}
				// Resume from the first and last barrier, on the writing
				// backend and on the other one.
				for _, ci := range []int{0, len(cks) - 1} {
					for _, rkind := range []BackendKind{kind, otherBackend(kind)} {
						env := ckptEnv(algo, m, 3, rkind, scn)
						res, err := Resume(env, cks[ci].Data)
						if err != nil {
							t.Fatalf("%s: resume ckpt %d on %s: %v", label, ci, rkind, err)
						}
						assertResultsEqual(t, label+"/resume-"+string(rkind), full, res)
					}
				}
			}
		}
	}
}

func otherBackend(k BackendKind) BackendKind {
	if k == BackendSequential {
		return BackendConcurrent
	}
	return BackendSequential
}

// TestCheckpointSinkIsPassive pins that serialization itself cannot perturb
// the run: results are identical with and without a sink listening at the
// barriers.
func TestCheckpointSinkIsPassive(t *testing.T) {
	withSink, cks := runCapturing(ckptEnv(LCASGD, 4, 3, BackendSequential, nil))
	if len(cks) < 2 {
		t.Fatalf("expected barriers at epochs 1 and 2, got %d checkpoints", len(cks))
	}
	noSink := Run(ckptEnv(LCASGD, 4, 3, BackendSequential, nil))
	assertResultsEqual(t, "sink-passive", withSink, noSink)
}

// TestCheckpointMetadataMatchesRun sanity-checks the Checkpoint header
// fields the experiment store displays.
func TestCheckpointMetadataMatchesRun(t *testing.T) {
	_, cks := runCapturing(ckptEnv(ASGD, 4, 3, BackendSequential, nil))
	if len(cks) != 2 {
		t.Fatalf("3-epoch run with every-epoch barriers: %d checkpoints, want 2 (none at the final epoch)", len(cks))
	}
	for i, ck := range cks {
		if ck.Epoch != i+1 {
			t.Fatalf("checkpoint %d at epoch %d", i, ck.Epoch)
		}
		if ck.Batches < ck.Epoch*8 || ck.Updates <= 0 || ck.VirtualMs <= 0 || len(ck.Data) == 0 {
			t.Fatalf("checkpoint %d implausible: %+v (payload %d bytes)", i, ck, len(ck.Data))
		}
	}
}

// TestResumeRejectsMismatchedConfig: a checkpoint must not restore into a
// run whose trajectory-shaping configuration differs.
func TestResumeRejectsMismatchedConfig(t *testing.T) {
	_, cks := runCapturing(ckptEnv(ASGD, 4, 3, BackendSequential, nil))
	env := ckptEnv(ASGD, 4, 3, BackendSequential, nil)
	env.Cfg.LR *= 2
	if _, err := Resume(env, cks[0].Data); err == nil {
		t.Fatal("resume accepted a checkpoint from a different configuration")
	}
	// The backend is exempt: it is excluded from ConfigKey by design.
	env2 := ckptEnv(ASGD, 4, 3, BackendConcurrent, nil)
	if _, err := Resume(env2, cks[0].Data); err != nil {
		t.Fatalf("cross-backend resume rejected: %v", err)
	}
}

// TestResumeRejectsCorruptPayload: the codec's corruption detection must
// surface through Resume rather than silently restoring garbage.
func TestResumeRejectsCorruptPayload(t *testing.T) {
	_, cks := runCapturing(ckptEnv(ASGD, 4, 3, BackendSequential, nil))
	data := append([]byte(nil), cks[0].Data...)

	truncated := data[:len(data)/2]
	env := ckptEnv(ASGD, 4, 3, BackendSequential, nil)
	if _, err := Resume(env, truncated); err == nil {
		t.Fatal("resume accepted a truncated checkpoint")
	}

	flipped := append([]byte(nil), data...)
	flipped[len(flipped)/3] ^= 0x10
	if _, err := Resume(env, flipped); err == nil {
		t.Fatal("resume accepted a bit-flipped checkpoint")
	}

	notASnapshot := []byte("definitely not a checkpoint")
	if _, err := Resume(env, notASnapshot); err == nil {
		t.Fatal("resume accepted a foreign file")
	}
}

// TestConfigKeyDiscriminates pins what run identity means: everything that
// shapes the trajectory changes the key, the execution backend does not.
func TestConfigKeyDiscriminates(t *testing.T) {
	base := tinyEnvSeeded(ASGD, 4, 3).Cfg
	key := ConfigKey(base)
	mutations := []func(*Config){
		func(c *Config) { c.Seed++ },
		func(c *Config) { c.LR *= 2 },
		func(c *Config) { c.Algo = LCASGD },
		func(c *Config) { c.Workers = 8 },
		func(c *Config) { c.CheckpointEvery = 1 },
		func(c *Config) { c.RecoverOpt = true },
		func(c *Config) { s := scenario.Flaky(); c.Scenario = &s },
	}
	for i, mut := range mutations {
		c := base
		mut(&c)
		if ConfigKey(c) == key {
			t.Fatalf("mutation %d did not change the config key", i)
		}
	}
	b := base
	b.Backend = BackendConcurrent
	if ConfigKey(b) != key {
		t.Fatal("backend changed the config key; backends are bit-identical and must share runs")
	}
	// The key is defaults-normalized: an explicitly-defaulted config and a
	// zero-field one identify the same run.
	d := base
	d.EvalBatch = 150
	if ConfigKey(d) != key {
		t.Fatal("applying an explicit default changed the key")
	}
}

// TestRecoverOptChangesRecoveryTrajectory pins the -recover-opt semantics:
// with checkpoints armed, a crash-recovery run where recovered workers
// restore the last barrier snapshot diverges from the fresh-pull default,
// still completes the full sample budget, and reports the checkpoint-scale
// staleness the stale restart incurs.
func TestRecoverOptChangesRecoveryTrajectory(t *testing.T) {
	scn := &scenario.Scenario{
		Name: "blip",
		Events: []scenario.Event{
			// The tiny env's first every-epoch barrier lands around t≈120
			// (updates≈10). The recovery must fall after the post-barrier
			// dead window (relaunched pipelines take ~33ms to commit again):
			// at t=170 the live server has drifted several updates past the
			// snapshot, so the stale restore is observable.
			{At: 100, Kind: scenario.Crash, Worker: 1},
			{At: 170, Kind: scenario.Recover, Worker: 1},
		},
	}
	mk := func(recover bool) Env {
		env := ckptEnv(ASGD, 4, 4, BackendSequential, scn)
		env.Cfg.RecoverOpt = recover
		return env
	}
	fresh := Run(mk(false))
	opt := Run(mk(true))
	if opt.Updates != fresh.Updates {
		t.Fatalf("recover-opt changed the sample budget: %d vs %d", opt.Updates, fresh.Updates)
	}
	same := true
	for i := range fresh.Points {
		if i < len(opt.Points) && fresh.Points[i] != opt.Points[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("recover-opt trajectory identical to fresh-pull recovery; restore path inert")
	}
	if opt.MaxStaleness <= fresh.MaxStaleness {
		t.Fatalf("checkpoint-stale restart did not raise max staleness: %d vs %d",
			opt.MaxStaleness, fresh.MaxStaleness)
	}

	// The variant preserves both engine guarantees: backend equivalence and
	// resume equivalence.
	assertBackendEquivalent(t, "recover-opt", func() Env { return mk(true) })
	full, cks := runCapturing(mk(true))
	res, err := Resume(mk(true), cks[0].Data)
	if err != nil {
		t.Fatal(err)
	}
	assertResultsEqual(t, "recover-opt/resume", full, res)
}

// TestRecoverOptBeforeFirstBarrierFallsBack: a recovery before any
// checkpoint exists must pull fresh state, matching the default exactly.
func TestRecoverOptBeforeFirstBarrierFallsBack(t *testing.T) {
	scn := &scenario.Scenario{
		Name: "early-blip",
		Events: []scenario.Event{
			{At: 40, Kind: scenario.Crash, Worker: 1},
			{At: 90, Kind: scenario.Recover, Worker: 1},
		},
	}
	mk := func(recover bool) Env {
		// Barriers every 2 epochs of a 2-epoch run: none ever fires before
		// the recovery.
		env := tinyEnvSeeded(ASGD, 4, 2)
		env.Cfg.Scenario = scn
		env.Cfg.CheckpointEvery = 2
		env.Cfg.RecoverOpt = recover
		return env
	}
	a, b := Run(mk(false)), Run(mk(true))
	// RecoverOpt is part of ConfigKey but, with no barrier before the
	// recovery, must not alter the numbers.
	assertResultsEqual(t, "recover-opt-fallback", a, b)
}

// TestSnapshotStateRoundTripViaStore exercises the full persistence loop a
// preempted runner would: checkpoint to an on-disk store, reload the bytes,
// resume.
func TestSnapshotStateRoundTripViaStore(t *testing.T) {
	st, err := snapshot.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	env := ckptEnv(LCASGD, 4, 3, BackendSequential, nil)
	rd, err := st.Run(ConfigKey(env.Cfg))
	if err != nil {
		t.Fatal(err)
	}
	rd.SetKeep(4)
	env.CheckpointSink = func(ck Checkpoint) error {
		return rd.SaveCheckpoint(ck.Data, snapshot.CkptMeta{
			Epoch: ck.Epoch, Batches: ck.Batches, Updates: ck.Updates, VirtualMs: ck.VirtualMs,
			Full: ck.Full, BaseEpoch: ck.BaseEpoch,
		})
	}
	full := Run(env)

	metas, err := rd.Checkpoints()
	if err != nil {
		t.Fatal(err)
	}
	if len(metas) == 0 {
		t.Fatal("no checkpoints stored")
	}
	if metas[0].Full {
		t.Fatalf("latest checkpoint at epoch %d is full; this test must resume through a delta chain", metas[0].Epoch)
	}
	data, meta, err := rd.LoadChain(metas[0].Epoch)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Epoch != 2 {
		t.Fatalf("latest checkpoint at epoch %d, want 2", meta.Epoch)
	}
	env2 := ckptEnv(LCASGD, 4, 3, BackendSequential, nil)
	res, err := Resume(env2, data)
	if err != nil {
		t.Fatal(err)
	}
	assertResultsEqual(t, "store-loop", full, res)
}

// TestArmedEventsEncodeInArmOrder: the armed scenario set is a map, yet the
// meta section writes its events in arm order, so encoding it is a function
// of the engine state alone — not of map iteration — and a restore re-arms
// the events in the order they were first armed. The timeline has events
// that share a virtual time, and a periodic event fires and re-arms before
// the encode, so arm order is neither time order nor the timeline's order.
func TestArmedEventsEncodeInArmOrder(t *testing.T) {
	env := tinyEnvSeeded(ASGD, 4, 3)
	env.Cfg = env.Cfg.withDefaults()
	engine := func() *Engine {
		e := newEngine(env, strategyFor(env.Cfg))
		e.strategy.Setup(e)
		return e
	}
	e := engine()
	defer e.close()
	e.scheduleScenarioEvent(scenario.Event{At: 10, Period: 10, Kind: scenario.PhaseShift, Worker: -1, CompScale: 2, CommScale: 1})
	for m := 0; m < 4; m++ {
		e.scheduleScenarioEvent(scenario.Event{At: 50, Kind: scenario.Partition, Worker: m})
		e.scheduleScenarioEvent(scenario.Event{At: 40 - float64(m), Kind: scenario.Heal, Worker: m})
	}
	e.scheduleScenarioEvent(scenario.Event{At: 50, Kind: scenario.Crash, Worker: 3})
	// Fire the periodic event: its next occurrence (t=20) is armed last.
	if !e.clock.Step() || e.Now() != 10 {
		t.Fatalf("first step ended at t=%v", e.Now())
	}
	armOrder := func(e *Engine) []scenario.Event {
		var evs []scenario.Event
		for _, id := range slices.Sorted(maps.Keys(e.armed)) {
			evs = append(evs, e.armed[id])
		}
		return evs
	}
	want := armOrder(e)
	if len(want) != 10 || want[9].At != 20 {
		t.Fatalf("armed after the periodic re-arm: %+v", want)
	}

	encode := func(e *Engine) []byte {
		w := snapshot.NewWriter()
		walkMeta(e, w.Codec(), 0)
		return w.Bytes()
	}
	meta := encode(e)
	for i := 0; i < 50; i++ {
		if b := encode(e); !bytes.Equal(b, meta) {
			t.Fatalf("encode %d of the same state differs from the first", i+1)
		}
	}

	r := engine()
	defer r.close()
	r.ck.restoring = len(meta)
	rd := snapshot.NewReader(meta)
	if walkMeta(r, rd.Codec(), 0); rd.Err() != nil {
		t.Fatal(rd.Err())
	}
	if got := armOrder(r); !reflect.DeepEqual(got, want) {
		t.Fatalf("restore re-armed\n%+v\nwant arm order\n%+v", got, want)
	}
	if b := encode(r); !bytes.Equal(b, meta) {
		t.Fatal("restored engine encodes a different meta section")
	}
}

// TestRestoreRejectsSubMillisecondPeriod: an armed event repeating every
// 1e-9 ms moves the clock by almost nothing per firing, so a run re-arming it
// never ends. Event.Validate refuses it, and the meta section's restore, which
// validates each event it re-arms, refuses a checkpoint holding one.
func TestRestoreRejectsSubMillisecondPeriod(t *testing.T) {
	env := tinyEnvSeeded(ASGD, 2, 2)
	env.Cfg = env.Cfg.withDefaults()
	engine := func() *Engine {
		e := newEngine(env, strategyFor(env.Cfg))
		e.strategy.Setup(e)
		return e
	}
	e := engine()
	defer e.close()
	e.scheduleScenarioEvent(scenario.Event{At: 10, Period: 1e-9, Kind: scenario.PhaseShift, Worker: -1, CompScale: 1, CommScale: 1})
	w := snapshot.NewWriter()
	walkMeta(e, w.Codec(), 0)

	r := engine()
	defer r.close()
	r.ck.restoring = len(w.Bytes())
	rd := snapshot.NewReader(w.Bytes())
	walkMeta(r, rd.Codec(), 0)
	if err := rd.Err(); err == nil || !strings.Contains(err.Error(), "under 1 ms") {
		t.Fatalf("restore of a 1e-9 ms period: err %v, want the period floor", err)
	}
	if len(r.armed) != 0 {
		t.Fatalf("the rejected event was re-armed: %v", r.armed)
	}
}

// TestRestoreRejectsOutOfRangePhaseScales: the cost sampler's stored phase
// multipliers are held to the rule a scenario event is held to,
// cluster.CheckPhaseScales, each on its own. A real AD-PSGD meta section
// with one stored multiplier — the fleet's or a worker's, computation or
// communication — rewritten to 1e52, +Inf, NaN, 0, −1 or just past
// cluster.MaxPhaseScale is refused by restore (a 1e52 one accepted would
// be a run that never ends); with all four at the bound the checkpoint
// resumes, and the run ends within FuzzRestoreSection's 3 s.
func TestRestoreRejectsOutOfRangePhaseScales(t *testing.T) {
	env := ckptEnv(ADPSGD, 4, 3, BackendSequential, equivalenceScenarios()[0])
	env.Cfg = env.Cfg.withDefaults()
	_, cks := runCapturing(env)
	if len(cks) == 0 {
		t.Fatal("no checkpoints emitted")
	}
	base, err := snapshot.DecodeContainer(cks[0].Data)
	if err != nil {
		t.Fatal(err)
	}
	meta := base.Sections[0]
	if meta.ID.Kind != secMeta {
		t.Fatalf("first section is kind %d, want the meta section", meta.ID.Kind)
	}

	// Where the multipliers sit: restore, install marker values, encode the
	// meta section again and find each marker's word.
	e := newEngine(env, strategyFor(env.Cfg))
	defer e.close()
	e.strategy.Setup(e)
	if err := e.restore(cks[0].Data); err != nil {
		t.Fatal(err)
	}
	markers := []float64{3.0625, 5.1875, 7.3125, 9.4375}
	e.sampler.SetPhase(markers[0], markers[1])
	e.sampler.SetWorkerPhase(2, markers[2], markers[3])
	w := snapshot.NewWriter()
	walkMeta(e, w.Codec(), 0)
	if len(w.Bytes()) != len(meta.Payload) {
		t.Fatalf("meta section re-encodes to %d bytes, the checkpoint's has %d", len(w.Bytes()), len(meta.Payload))
	}
	offs := make([]int, len(markers))
	for i, v := range markers {
		word := binary.LittleEndian.AppendUint64(nil, math.Float64bits(v))
		if bytes.Count(w.Bytes(), word) != 1 {
			t.Fatalf("marker %v is not in the meta section exactly once", v)
		}
		offs[i] = bytes.Index(w.Bytes(), word)
	}

	// with returns the checkpoint with the multipliers at offs set to v.
	with := func(v float64, offs ...int) []byte {
		p := bytes.Clone(meta.Payload)
		for _, off := range offs {
			binary.LittleEndian.PutUint64(p[off:], math.Float64bits(v))
		}
		c := *base
		c.Sections = slices.Clone(base.Sections)
		c.Sections[0].Payload, c.Sections[0].Sum = p, 0
		data, err := snapshot.EncodeContainer(&c)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	for _, off := range offs {
		for _, v := range []float64{1.7e52, math.Inf(1), math.NaN(), 0, -1, math.Nextafter(cluster.MaxPhaseScale, math.Inf(1))} {
			r := newEngine(env, strategyFor(env.Cfg))
			r.strategy.Setup(r)
			err := r.restore(with(v, off))
			r.close()
			if err == nil || !strings.Contains(err.Error(), "phase scales") {
				t.Fatalf("multiplier at meta byte %d = %v: restore returned %v, want the phase-scale rule", off, v, err)
			}
		}
	}
	done := make(chan error, 1)
	start := time.Now()
	go func() {
		_, err := Resume(env, with(cluster.MaxPhaseScale, offs...))
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("every multiplier at the bound: Resume returned %v", err)
		}
		t.Logf("every multiplier at the bound: the resumed run took %v", time.Since(start))
	case <-time.After(3 * time.Second):
		t.Fatal("every multiplier at the bound: the resumed run is still going after 3 s")
	}
}
