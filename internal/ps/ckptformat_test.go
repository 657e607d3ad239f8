package ps

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"testing"
	"time"

	"lcasgd/internal/scenario"
	"lcasgd/internal/snapshot"
	"lcasgd/internal/telemetry"
)

// runCapturingRaw executes env and collects the checkpoints exactly as
// emitted — deltas stay deltas — for tests that compare container bytes.
func runCapturingRaw(env Env) []Checkpoint {
	var cks []Checkpoint
	env.CheckpointSink = func(ck Checkpoint) error {
		cks = append(cks, ck)
		return nil
	}
	Run(env)
	return cks
}

// TestDeltaOmitsOnlyWhatStoodStill is the delta encoder's completeness check.
// Nothing declares a section dirty — a delta holds what encodes to different
// bytes than last time — so the oracle is the bytes: for every algorithm and
// churning scenario, each chain the run emits materializes to exactly the
// container a CheckpointFullEvery=1 run of the same config emits at that
// barrier, so no section that moved was left out; the same holds for the
// chain a resumed run starts, whose encoder has no previous checkpoint to
// compare with; and the resumed run finishes like the straight-through one.
//
// The shared equivalence scenarios recover every worker between barriers, so
// every section moves; the dead-worker scenario is what makes one stand still.
// Worker 3 dies before the first barrier and stays dead: every later delta
// must hold each live worker's section and not worker 3's.
func TestDeltaOmitsOnlyWhatStoodStill(t *testing.T) {
	dead := &scenario.Scenario{
		Name:   "dead-worker",
		Events: []scenario.Event{{At: 40, Kind: scenario.Crash, Worker: 3}},
	}
	scns := append([]*scenario.Scenario{nil, dead}, equivalenceScenarios()...)
	omitted := 0
	for _, algo := range allAlgos {
		for _, scn := range scns {
			m := 4
			if algo == SGD {
				m = 1
			}
			name := "none"
			if scn != nil {
				name = scn.Name
			}
			label := string(algo) + "/" + name
			mk := func(fullEvery int) Env {
				env := ckptEnv(algo, m, 4, BackendSequential, scn)
				env.Cfg.CheckpointFullEvery = fullEvery
				return env
			}
			fulls := runCapturingRaw(mk(1))
			// checked is a sink that checks each link as it lands; the first
			// one is barrier number next of the run.
			checked := func(what string, next int) func(Checkpoint) error {
				var links [][]byte
				return func(ck Checkpoint) error {
					if ck.Full {
						links = links[:0]
					}
					links = append(links, ck.Data)
					got, err := snapshot.Materialize(links...)
					if err != nil {
						t.Fatalf("%s: %s: materialize chain at epoch %d: %v", label, what, ck.Epoch, err)
					}
					if !bytes.Equal(got, fulls[next].Data) {
						t.Fatalf("%s: %s: chain at epoch %d does not materialize to the direct full encode", label, what, ck.Epoch)
					}
					next++
					if ck.Full || scn != dead || m == 1 {
						return nil
					}
					c, err := snapshot.DecodeContainer(ck.Data)
					if err != nil {
						t.Fatal(err)
					}
					held := map[uint32]bool{}
					for _, s := range c.Sections {
						if s.ID.Kind == secWorker {
							held[s.ID.Index] = true
						}
					}
					if !held[0] || !held[1] || !held[2] || held[3] {
						t.Fatalf("%s: %s: delta at epoch %d holds worker sections %v, want the three live workers and not the dead one",
							label, what, ck.Epoch, held)
					}
					omitted++
					return nil
				}
			}
			if len(fulls) < 3 {
				t.Fatalf("%s: %d barriers; need 3 for a delta on both sides of a resume", label, len(fulls))
			}
			env := mk(0)
			env.CheckpointSink = checked("straight", 0)
			straight := Run(env)
			env.CheckpointSink = checked("resumed", 1)
			res, err := Resume(env, fulls[0].Data)
			if err != nil {
				t.Fatalf("%s: resume: %v", label, err)
			}
			assertResultsEqual(t, label+"/resumed", straight, res)
		}
	}
	if omitted == 0 {
		t.Fatal("no delta was ever checked for the dead worker; the omission path is not covered")
	}
}

// TestDeltaChainMaterializesToFullRunBytes is the delta format's byte-level
// contract: a run emitting deltas, materialized link by link, produces at
// every barrier exactly the container a CheckpointFullEvery=1 run of the
// same config emits. (The cadence is excluded from ConfigKey, so the two
// runs share one trajectory.)
func TestDeltaChainMaterializesToFullRunBytes(t *testing.T) {
	for _, algo := range []Algo{LCASGD, ADPSGD} {
		capture := func(fullEvery int) []Checkpoint {
			env := ckptEnv(algo, 4, 4, BackendSequential, nil)
			env.Cfg.CheckpointFullEvery = fullEvery
			return runCapturingRaw(env)
		}
		fulls := capture(1)
		chain := capture(8)
		if len(fulls) != len(chain) || len(fulls) < 3 {
			t.Fatalf("%s: %d vs %d checkpoints; need ≥3 to cover a multi-delta chain", algo, len(fulls), len(chain))
		}
		var links [][]byte
		sawDelta := false
		for i, ck := range chain {
			if !fulls[i].Full {
				t.Fatalf("%s: CheckpointFullEvery=1 emitted a delta at %d", algo, i)
			}
			if ck.Full {
				links = links[:0]
			} else {
				sawDelta = true
			}
			links = append(links, ck.Data)
			got := ck.Data
			if !ck.Full {
				var err error
				got, err = snapshot.Materialize(links...)
				if err != nil {
					t.Fatalf("%s: materialize chain at %d: %v", algo, i, err)
				}
			}
			if !bytes.Equal(got, fulls[i].Data) {
				t.Fatalf("%s: checkpoint %d: materialized chain differs from the direct full encode", algo, i)
			}
		}
		if !sawDelta {
			t.Fatalf("%s: chain run emitted no deltas", algo)
		}
	}
}

// TestResumeRejectsBareDelta: a delta container is not restorable on its
// own; Resume must refuse it with a chain error instead of restoring a
// partial state.
func TestResumeRejectsBareDelta(t *testing.T) {
	cks := runCapturingRaw(ckptEnv(ASGD, 4, 3, BackendSequential, nil))
	var delta *Checkpoint
	for i := range cks {
		if !cks[i].Full {
			delta = &cks[i]
			break
		}
	}
	if delta == nil {
		t.Fatal("run emitted no delta checkpoints")
	}
	if _, err := Resume(ckptEnv(ASGD, 4, 3, BackendSequential, nil), delta.Data); !errors.Is(err, snapshot.ErrNotFull) {
		t.Fatalf("resuming a bare delta: %v", err)
	}
}

// TestFullCadenceExcludedFromConfigKey: full-vs-delta cadence is encoding
// policy, not trajectory — a run may checkpoint with one cadence and resume
// with another, so it must not fork the run's identity.
func TestFullCadenceExcludedFromConfigKey(t *testing.T) {
	base := tinyEnvSeeded(ASGD, 4, 3).Cfg
	c := base
	c.CheckpointFullEvery = 3
	if ConfigKey(c) != ConfigKey(base) {
		t.Fatal("CheckpointFullEvery changed the config key; persistence policy must not fork runs")
	}
}

// checkpointFormatGolden is the sha256 over every container the matrix below
// emits. It is the on-disk compatibility contract: stores written by an
// earlier build of the same format must still resume, so a refactor of the
// encoder leaves this hash alone. A change that moves checkpoint bytes on
// purpose is a format change — it bumps snapshot.ContainerVersion (stores of
// the older format are then refused, and their cells re-run) and updates the
// golden in the same commit. A change that moves the values a run computes
// on purpose (TestFingerprint's golden moves with it) moves these bytes
// without changing the encoding: it updates the golden and keeps the
// version.
const checkpointFormatGolden = "dc7d7a39c8ae9c95bcbe1305d9d909387315d16d4b39f6d23780c2e678a97e79"

// TestCheckpointFormatGolden hashes the exact bytes of every full and delta
// container emitted by all registered algorithms under no churn and the three
// equivalence scenarios, with a telemetry recorder attached to every other
// cell so all eight section kinds appear. The delta/parallel/resume suites
// only compare a run with itself; this is the test that pins the bytes across
// commits. Checked on amd64 only, like TestFingerprint: the payloads hold
// float bits.
func TestCheckpointFormatGolden(t *testing.T) {
	h := sha256.New()
	kinds := map[uint32]bool{}
	fulls, deltas, total := 0, 0, 0
	scns := append([]*scenario.Scenario{nil}, equivalenceScenarios()...)
	cell := 0
	for _, algo := range allAlgos {
		for _, scn := range scns {
			m := 4
			if algo == SGD {
				m = 1
			}
			name := "none"
			if scn != nil {
				name = scn.Name
			}
			env := ckptEnv(algo, m, 4, BackendSequential, scn)
			env.Cfg.CheckpointFullEvery = 2
			if cell%2 == 1 {
				env.Telemetry = telemetry.NewRecorder()
			}
			cell++
			for _, ck := range runCapturingRaw(env) {
				fmt.Fprintf(h, "%s/%s epoch=%d full=%v bytes=%d\n", algo, name, ck.Epoch, ck.Full, len(ck.Data))
				h.Write(ck.Data)
				total += len(ck.Data)
				if ck.Full {
					fulls++
				} else {
					deltas++
				}
				c, err := snapshot.DecodeContainer(ck.Data)
				if err != nil {
					t.Fatalf("%s/%s epoch %d: %v", algo, name, ck.Epoch, err)
				}
				for _, s := range c.Sections {
					kinds[s.ID.Kind] = true
				}
			}
		}
	}
	if fulls == 0 || deltas == 0 {
		t.Fatalf("matrix emitted %d fulls and %d deltas; both encodings must be covered", fulls, deltas)
	}
	for k := uint32(secMeta); k <= secTelTrace; k++ {
		if !kinds[k] {
			t.Fatalf("no container holds a section of kind %d", k)
		}
	}
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden is checked on amd64 only, this is %s", runtime.GOARCH)
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != checkpointFormatGolden {
		t.Fatalf("checkpoint bytes moved: sha256 %s over %d containers (%d bytes), golden %s",
			got, fulls+deltas, total, checkpointFormatGolden)
	}
}

// hostileWords are the eight-byte patterns TestResumeRejectsHostileBytes
// writes over checkpoint payloads: the values that turn a count, a length
// prefix, a worker rank, a time or an RNG word into trouble.
var hostileWords = [...]uint64{
	0, 1, 1 << 30, 1 << 33, 1 << 62, math.MaxUint64,
	math.Float64bits(math.NaN()), math.Float64bits(-1),
}

// heapAllocated is the cumulative bytes the process has allocated (read
// without stopping the world, unlike runtime.ReadMemStats).
func heapAllocated() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// allocated returns what f allocates, counted from the call of f or, if f
// calls it, from mark (work before mark is not counted). The heap counter is
// process-wide, so a reading over bound may hold another goroutine's
// allocation: f is run again, up to three runs in all, and the least
// reading is returned. A length the bytes do not back allocates on every
// run.
func allocated(bound uint64, f func(mark func())) uint64 {
	least := uint64(math.MaxUint64)
	for try := 0; try < 3 && least > bound; try++ {
		before := heapAllocated()
		f(func() { before = heapAllocated() })
		least = min(least, heapAllocated()-before)
	}
	return least
}

// TestResumeRejectsHostileBytes is the other half of "fall back to the
// next-older checkpoint on error": a container whose checksums pass but
// whose contents lie must come back from restore as an error — or as a
// restored engine, when the bytes happen to be a legal checkpoint of some
// other run (a changed weight is) — and never as a panic, a stall or an
// allocation sized by the lie.
//
// For a full container of LC-ASGD under churn with telemetry (all eight
// section kinds, armed events, a strategy payload), of AD-PSGD (per-worker
// models, the selector stream) and of SSGD, it overwrites eight bytes with
// each hostile word at byte offsets spread over every section payload — all
// of them on a small section, an odd stride on a large one (and on all of
// them with -short), so fields that follow a variable-length string are hit
// unaligned as well as aligned —
// zeroes every RNG state, drops every section, cuts the container at every
// section boundary, reseals with EncodeContainer so the CRCs pass, and runs
// restore on a fresh engine. Every 24th case also goes through Resume end to
// end: a rejected one must be rejected there too and leave the recorder
// unbound, an accepted one must run to completion.
func TestResumeRejectsHostileBytes(t *testing.T) {
	// Offsets tried per section: all of them up to dense bytes (the sections
	// with strings in them are that small), perSection of them beyond.
	dense, perSection := 1024, 160
	if testing.Short() {
		dense, perSection = 0, 40
	}
	cells := []struct {
		name string
		env  Env
		tel  bool
	}{
		{"LC-ASGD/telemetry/partition-heal", ckptEnv(LCASGD, 4, 3, BackendSequential, equivalenceScenarios()[2]), true},
		{"AD-PSGD", ckptEnv(ADPSGD, 4, 3, BackendSequential, nil), false},
		{"SSGD", ckptEnv(SSGD, 4, 3, BackendSequential, nil), false},
	}
	for _, cell := range cells {
		fresh := func() Env {
			env := cell.env
			env.Cfg = env.Cfg.withDefaults()
			if cell.tel {
				env.Telemetry = telemetry.NewRecorder()
			}
			return env
		}
		_, cks := runCapturing(fresh())
		if len(cks) == 0 {
			t.Fatalf("%s: no checkpoints emitted", cell.name)
		}
		base, err := snapshot.DecodeContainer(cks[0].Data)
		if err != nil {
			t.Fatal(err)
		}
		cases, rejected, resumed := 0, 0, 0

		// restore runs one case under the three limits and returns its verdict.
		restore := func(what string, data []byte) error {
			var err error
			bound := uint64(4*len(data) + 1<<20)
			grew := allocated(bound, func(mark func()) {
				env := fresh()
				e := newEngine(env, strategyFor(env.Cfg))
				defer e.close()
				e.strategy.Setup(e)
				defer func() {
					if p := recover(); p != nil {
						t.Fatalf("%s: %s: restore panicked: %v", cell.name, what, p)
					}
				}()
				mark()
				start := time.Now()
				err = e.restore(data)
				if took := time.Since(start); took > time.Second {
					t.Fatalf("%s: %s: restore took %v", cell.name, what, took)
				}
			})
			if grew > bound {
				t.Fatalf("%s: %s: restore of a %d-byte container allocated %d bytes", cell.name, what, len(data), grew)
			}
			cases++
			if err != nil {
				rejected++
			}
			return err
		}
		// resume sends the same bytes through the public entry point.
		resume := func(what string, data []byte, wantErr bool) {
			env := fresh()
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("%s: %s: Resume panicked: %v", cell.name, what, p)
				}
			}()
			_, err := Resume(env, data)
			if (err != nil) != wantErr {
				t.Fatalf("%s: %s: restore said error=%v, Resume returned %v", cell.name, what, wantErr, err)
			}
			if err != nil && env.Telemetry != nil && env.Telemetry.Bound() {
				t.Fatalf("%s: %s: failed Resume left the recorder bound", cell.name, what)
			}
			resumed++
		}
		// reseal re-encodes the container around edited sections.
		reseal := func(secs []snapshot.Section) []byte {
			c := *base
			c.Sections = secs
			data, err := snapshot.EncodeContainer(&c)
			if err != nil {
				t.Fatal(err)
			}
			return data
		}
		// with returns the section list with section si's payload replaced.
		with := func(si int, payload []byte) []snapshot.Section {
			secs := append([]snapshot.Section(nil), base.Sections...)
			secs[si].Payload, secs[si].Sum = payload, 0
			return secs
		}

		if err := restore("untouched", reseal(with(0, base.Sections[0].Payload))); err != nil {
			t.Fatalf("%s: resealed but untouched container rejected: %v", cell.name, err)
		}
		for si, s := range base.Sections {
			sec := fmt.Sprintf("section (%d,%d)", s.ID.Kind, s.ID.Index)
			span := len(s.Payload) - 8
			stride := 1
			if span > dense && span > perSection {
				stride = span/perSection | 1
			}
			for off := 0; off <= span; off += stride {
				for _, word := range hostileWords {
					p := append([]byte(nil), s.Payload...)
					binary.LittleEndian.PutUint64(p[off:], word)
					what := fmt.Sprintf("%s offset %d = %#x", sec, off, word)
					data := reseal(with(si, p))
					err := restore(what, data)
					if cases%24 == 0 {
						resume(what, data, err != nil)
					}
				}
			}

			// Every RNG state is a four-word slice; its words zeroed are the
			// one state xoshiro cannot leave. The seed stream and the cost
			// sampler's open the meta section after four scalars, a batch
			// iterator's opens a worker section.
			const header = 0
			var states []int
			switch s.ID.Kind {
			case secMeta:
				states = []int{header + 4*8, header + 4*8 + 5*8}
			case secWorker:
				states = []int{header}
			}
			for _, at := range states {
				p := append([]byte(nil), s.Payload...)
				if n := binary.LittleEndian.Uint64(p[at:]); n != 4 {
					t.Fatalf("%s: %s offset %d holds %d, not an RNG state's length prefix", cell.name, sec, at, n)
				}
				clear(p[at+8 : at+8+4*8])
				what := fmt.Sprintf("%s zero RNG state at %d", sec, at)
				data := reseal(with(si, p))
				if restore(what, data) == nil {
					t.Fatalf("%s: %s: accepted", cell.name, what)
				}
				resume(what, data, true)
			}

			// A container without this section, and one cut where it ends.
			dropped := append(append([]snapshot.Section(nil), base.Sections[:si]...), base.Sections[si+1:]...)
			if restore(sec+" dropped", reseal(dropped)) == nil {
				t.Fatalf("%s: container without %s accepted", cell.name, sec)
			}
			if restore(sec+" and the rest dropped", reseal(base.Sections[:si])) == nil {
				t.Fatalf("%s: container cut before %s and resealed accepted", cell.name, sec)
			}
			end := bytes.Index(cks[0].Data, s.Payload) + len(s.Payload)
			if restore("cut after "+sec, cks[0].Data[:end]) == nil {
				t.Fatalf("%s: container cut after %s accepted", cell.name, sec)
			}
		}
		if rejected == 0 || rejected == cases || resumed == 0 {
			t.Fatalf("%s: %d cases, %d rejected, %d through Resume; the sweep is not exercising both verdicts", cell.name, cases, rejected, resumed)
		}
		t.Logf("%s: %d sections, %d bytes: %d cases, %d rejected, %d accepted, %d through Resume",
			cell.name, len(base.Sections), len(cks[0].Data), cases, rejected, cases-rejected, resumed)
	}
}

// FuzzRestoreSection drives the restore walk with arbitrary section bytes.
// cell picks one of three real full containers — LC-ASGD with telemetry
// under partition-heal, AD-PSGD under crash-recovery, SSGD under elastic —
// section one of its sections, and payload replaces that section's bytes;
// the seed corpus is every section as the run wrote it. The container is
// resealed so its checksums pass and restored into a fresh engine. A
// rejection is fine and a panic is not; an accepted checkpoint must also run
// to the end within a 3 s watchdog, which is what catches a restored
// timeline that never lets the run finish (an event repeating too fast for
// the clock to get anywhere).
func FuzzRestoreSection(f *testing.F) {
	scns := equivalenceScenarios()
	cells := []struct {
		env Env
		tel bool
	}{
		{ckptEnv(LCASGD, 4, 3, BackendSequential, scns[2]), true},
		{ckptEnv(ADPSGD, 4, 3, BackendSequential, scns[0]), false},
		{ckptEnv(SSGD, 4, 3, BackendSequential, scns[1]), false},
	}
	fresh := func(ci int) Env {
		env := cells[ci].env
		env.Cfg = env.Cfg.withDefaults()
		if cells[ci].tel {
			env.Telemetry = telemetry.NewRecorder()
		}
		return env
	}
	bases := make([]*snapshot.Container, len(cells))
	for ci := range cells {
		_, cks := runCapturing(fresh(ci))
		if len(cks) == 0 {
			f.Fatalf("cell %d: no checkpoints emitted", ci)
		}
		c, err := snapshot.DecodeContainer(cks[0].Data)
		if err != nil {
			f.Fatal(err)
		}
		bases[ci] = c
		for si, s := range c.Sections {
			f.Add(uint8(ci), uint16(si), s.Payload)
		}
	}
	f.Fuzz(func(t *testing.T, cell uint8, section uint16, payload []byte) {
		ci := int(cell) % len(cells)
		c := *bases[ci]
		c.Sections = append([]snapshot.Section(nil), c.Sections...)
		si := int(section) % len(c.Sections)
		c.Sections[si].Payload, c.Sections[si].Sum = payload, 0
		data, err := snapshot.EncodeContainer(&c)
		if err != nil {
			t.Fatal(err)
		}
		env := fresh(ci)
		e := newEngine(env, strategyFor(env.Cfg))
		e.strategy.Setup(e)
		if err := e.restore(data); err != nil {
			e.close()
			return
		}
		done := make(chan any, 1)
		go func() {
			defer func() { done <- recover() }()
			e.relaunchDeferred()
			e.loop()
		}()
		select {
		case p := <-done:
			e.close()
			if p != nil {
				t.Fatalf("cell %d section %d: the restored run panicked: %v", ci, si, p)
			}
		case <-time.After(3 * time.Second):
			t.Fatalf("cell %d section %d: the restored run is still going after 3 s", ci, si)
		}
	})
}

// realChains returns checkpoint chains of real runs — LC-ASGD with
// telemetry under partition-heal and AD-PSGD under crash-recovery, a full
// every third barrier — each a full container followed by its deltas.
func realChains(tb testing.TB) [][][]byte {
	var chains [][][]byte
	for _, env := range []Env{
		ckptEnv(LCASGD, 4, 4, BackendSequential, equivalenceScenarios()[2]),
		ckptEnv(ADPSGD, 4, 4, BackendSequential, equivalenceScenarios()[0]),
	} {
		env.Cfg.CheckpointFullEvery = 3
		if env.Cfg.Algo == LCASGD {
			env.Telemetry = telemetry.NewRecorder()
		}
		for _, ck := range runCapturingRaw(env) {
			if ck.Full {
				chains = append(chains, nil)
			}
			chains[len(chains)-1] = append(chains[len(chains)-1], ck.Data)
		}
	}
	if len(chains) == 0 || len(chains[0]) < 3 {
		tb.Fatalf("want a full and two deltas in the first chain, got %d chains", len(chains))
	}
	return chains
}

// typedContainerError reports whether err is one of the errors the
// container layer promises for bad bytes.
func typedContainerError(err error) bool {
	for _, want := range []error{snapshot.ErrBadMagic, snapshot.ErrVersion, snapshot.ErrChecksum,
		snapshot.ErrCorrupt, snapshot.ErrNotFull, snapshot.ErrChainBroken} {
		if errors.Is(err, want) {
			return true
		}
	}
	return false
}

// allocBound is what decoding n bytes of containers may allocate: the
// section directory and its bookkeeping are a small multiple of the bytes
// that encode them, so a length the bytes do not back shows as far more.
func allocBound(n int) uint64 { return 64*uint64(n) + 1<<16 }

// FuzzDecodeContainer holds DecodeContainer to its contract on arbitrary
// bytes, seeded with every full and delta container of realChains: no
// panic, no allocation sized by an unchecked length, and either a typed
// error or a container that EncodeContainer turns back into exactly the
// same bytes.
func FuzzDecodeContainer(f *testing.F) {
	for _, chain := range realChains(f) {
		for _, b := range chain {
			f.Add(b)
		}
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		var c *snapshot.Container
		var err error
		if got := allocated(allocBound(len(b)), func(func()) { c, err = snapshot.DecodeContainer(b) }); got > allocBound(len(b)) {
			t.Fatalf("decoding %d bytes allocated %d", len(b), got)
		}
		if err != nil {
			if !typedContainerError(err) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		again, err := snapshot.EncodeContainer(c)
		if err != nil {
			t.Fatalf("re-encoding a decoded container: %v", err)
		}
		if !bytes.Equal(again, b) {
			t.Fatalf("decode then encode moved the bytes: %d in, %d out", len(b), len(again))
		}
	})
}

// FuzzMaterialize holds Materialize to its contract on an arbitrary chain
// of up to three links (full, then links mod 3 of d1, d2),
// seeded with the real chains of realChains: no panic, no allocation sized
// by an unchecked length, and either a typed error or a full container that
// decodes, that materializes alone to itself, and — for a one-link chain —
// that is the link's own bytes.
func FuzzMaterialize(f *testing.F) {
	for _, chain := range realChains(f) {
		links := append(chain[:len(chain):len(chain)], nil, nil)
		f.Add(uint8(len(chain)-1), links[0], links[1], links[2])
	}
	f.Fuzz(func(t *testing.T, links uint8, full, d1, d2 []byte) {
		chain := [][]byte{full, d1, d2}[:1+int(links)%3]
		total := 0
		for _, b := range chain {
			total += len(b)
		}
		var out []byte
		var err error
		if got := allocated(allocBound(total), func(func()) { out, err = snapshot.Materialize(chain...) }); got > allocBound(total) {
			t.Fatalf("materializing %d bytes allocated %d", total, got)
		}
		if err != nil {
			if !typedContainerError(err) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		c, err := snapshot.DecodeContainer(out)
		if err != nil || c.Kind != snapshot.KindFull {
			t.Fatalf("materialized bytes do not decode as a full container: %v", err)
		}
		again, err := snapshot.Materialize(out)
		if err != nil || !bytes.Equal(again, out) {
			t.Fatalf("a materialized container does not materialize to itself: %v", err)
		}
		if len(chain) == 1 && !bytes.Equal(out, full) {
			t.Fatalf("a lone full container materialized to other bytes: %d in, %d out", len(full), len(out))
		}
	})
}

// FuzzLoadChain holds RunDir.LoadChain to its contract on a run directory
// whose checkpoint payloads are arbitrary bytes: up to three links (full,
// then links mod 3 of d1, d2) stored at epochs 1..n through SaveCheckpoint,
// link 1's metadata saying full and each later one's a delta on the epoch
// before, seeded with the real chains of realChains. The lowest of shape's
// bits 0-3 that is set damages the metadata as a store can be damaged: bit
// 0 marks link 1 a delta on epoch 0 (never stored), bit 1 marks the top
// link full, bit 2 points the top link at itself (a loop), bit 3 at an
// epoch never stored; bit 4, besides, deletes link 1's payload. Whatever the bytes, LoadChain must not panic or
// allocate by an unchecked length, and must return either exactly what
// Materialize makes of the chain the metadata names or a typed error.
func FuzzLoadChain(f *testing.F) {
	for i, chain := range realChains(f) {
		links := append(chain[:len(chain):len(chain)], nil, nil)
		f.Add(uint8(len(chain)-1), uint8(0), links[0], links[1], links[2])
		if i == 0 {
			for bit := uint8(1); bit < 32; bit <<= 1 {
				f.Add(uint8(len(chain)-1), bit, links[0], links[1], links[2])
			}
		}
	}
	f.Fuzz(func(t *testing.T, links, shape uint8, full, d1, d2 []byte) {
		chain := [][]byte{full, d1, d2}[:1+int(links)%3]
		top := len(chain)
		metas := make([]snapshot.CkptMeta, top)
		for i := range metas {
			metas[i] = snapshot.CkptMeta{Epoch: i + 1, Full: i == 0, BaseEpoch: i}
		}
		switch {
		case shape&1 != 0:
			metas[0].Full = false
		case shape&2 != 0:
			metas[top-1].Full = true
		case shape&4 != 0:
			metas[top-1].Full, metas[top-1].BaseEpoch = false, top
		case shape&8 != 0:
			metas[top-1].Full, metas[top-1].BaseEpoch = false, 99
		}
		st, err := snapshot.OpenStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		rd, err := st.Run("f022c4a1e0c4a1e0f022")
		if err != nil {
			t.Fatal(err)
		}
		rd.SetKeep(top)
		total := 0
		for i, b := range chain {
			if err := rd.SaveCheckpoint(b, metas[i]); err != nil {
				t.Fatal(err)
			}
			total += len(b)
		}
		if shape&16 != 0 {
			if err := os.Remove(filepath.Join(rd.Dir(), "ckpt-00000001.bin")); err != nil {
				t.Fatal(err)
			}
		}

		// The chain the metadata names, oldest first, or why there is none.
		var named [][]byte
		var walkErr error
		seen := map[int]bool{}
		for at := top; ; {
			if at < 1 || at > top || at == 1 && shape&16 != 0 {
				walkErr = snapshot.ErrNoCheckpoint
				break
			}
			if seen[at] {
				walkErr = snapshot.ErrChainBroken
				break
			}
			seen[at] = true
			named = append([][]byte{chain[at-1]}, named...)
			if metas[at-1].Full {
				break
			}
			at = metas[at-1].BaseEpoch
		}

		var got []byte
		var meta snapshot.CkptMeta
		if grew := allocated(allocBound(total), func(func()) { got, meta, err = rd.LoadChain(top) }); grew > allocBound(total) {
			t.Fatalf("loading a %d-byte chain allocated %d", total, grew)
		}
		if walkErr != nil {
			if !errors.Is(err, walkErr) {
				t.Fatalf("metadata chain broken (%v), LoadChain returned %v", walkErr, err)
			}
			return
		}
		want, wantErr := snapshot.Materialize(named...)
		switch {
		case wantErr != nil && err == nil:
			t.Fatalf("Materialize refused the chain (%v), LoadChain accepted it", wantErr)
		case err != nil && !typedContainerError(err):
			t.Fatalf("untyped error: %v", err)
		case err != nil && wantErr == nil:
			t.Fatalf("Materialize accepted the chain, LoadChain returned %v", err)
		case err == nil && !bytes.Equal(got, want):
			t.Fatalf("LoadChain returned %d bytes, Materialize %d different ones", len(got), len(want))
		case err == nil && meta.Epoch != top:
			t.Fatalf("LoadChain returned the metadata of epoch %d, want %d", meta.Epoch, top)
		}
	})
}
