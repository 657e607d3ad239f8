package trainer

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lcasgd/internal/core"
	"lcasgd/internal/data"
	"lcasgd/internal/ps"
	"lcasgd/internal/scenario"
	"lcasgd/internal/snapshot"
)

// persistProfile is tinyProfile wired to a store with every-epoch barriers.
func persistProfile(t *testing.T, dir string, resume bool) Profile {
	t.Helper()
	st, err := snapshot.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	p := tinyProfile()
	p.Store = st
	p.CkptEvery = 1
	p.Resume = resume
	return p
}

func assertSameResult(t *testing.T, label string, a, b ps.Result) {
	t.Helper()
	if len(a.Points) != len(b.Points) {
		t.Fatalf("%s: point counts %d vs %d", label, len(a.Points), len(b.Points))
	}
	for i := range a.Points {
		if a.Points[i] != b.Points[i] {
			t.Fatalf("%s: point %d differs: %+v vs %+v", label, i, a.Points[i], b.Points[i])
		}
	}
	if a.FinalTestErr != b.FinalTestErr || a.Updates != b.Updates || a.VirtualMs != b.VirtualMs {
		t.Fatalf("%s: summaries differ: (%v,%d,%v) vs (%v,%d,%v)", label,
			a.FinalTestErr, a.Updates, a.VirtualMs, b.FinalTestErr, b.Updates, b.VirtualMs)
	}
}

// TestPersistedCellLifecycle drives one cell through the store's three
// lifecycle cases: fresh run (artifacts written), completed run under
// -resume (stored result returned without recompute), and interrupted run
// under -resume (checkpoint-resumed, bit-identical to the uninterrupted
// answer — including after a corrupted checkpoint forces the full-re-run
// fallback).
func TestPersistedCellLifecycle(t *testing.T) {
	dir := t.TempDir()
	p := persistProfile(t, dir, false)

	// Fresh run: every artifact lands in the content-addressed run dir.
	orig := RunCell(p, ps.ASGD, 4, core.BNAsync, 1)
	key := ps.ConfigKey(cellConfig(p, ps.ASGD, 4, core.BNAsync, 1))
	rd, err := p.Store.Run(key)
	if err != nil {
		t.Fatal(err)
	}
	if !rd.HasResult() {
		t.Fatal("completed run left no result.json")
	}
	for _, name := range []string{"config.json", "curve.json"} {
		if _, err := os.Stat(filepath.Join(rd.Dir(), name)); err != nil {
			t.Fatalf("missing artifact %s: %v", name, err)
		}
	}
	metas, err := rd.Checkpoints()
	if err != nil {
		t.Fatal(err)
	}
	// Default retention keeps the newest barrier plus — now that checkpoints
	// are delta chains — the links that barrier is based on, and nothing
	// beyond them.
	if len(metas) == 0 {
		t.Fatal("run dir retains no checkpoints")
	}
	need := map[int]bool{metas[0].Epoch: true}
	for at := metas[0]; !at.Full; {
		need[at.BaseEpoch] = true
		found := false
		for _, m := range metas {
			if m.Epoch == at.BaseEpoch {
				at, found = m, true
				break
			}
		}
		if !found {
			t.Fatalf("newest checkpoint's chain needs epoch %d, which retention dropped: %+v", at.BaseEpoch, metas)
		}
	}
	for _, m := range metas {
		if !need[m.Epoch] {
			t.Fatalf("retention kept epoch %d beyond the newest chain: %+v", m.Epoch, metas)
		}
	}
	if _, _, err := rd.LoadChain(metas[0].Epoch); err != nil {
		t.Fatalf("newest retained chain does not load: %v", err)
	}

	// Completed + resume: the stored result is returned as-is. Proven by
	// planting a sentinel in result.json — a recompute could never produce
	// it.
	var doc ps.Result
	if err := rd.LoadResult(&doc); err != nil {
		t.Fatal(err)
	}
	doc.FinalTestErr = 0.123456789
	if err := rd.SaveResult(doc); err != nil {
		t.Fatal(err)
	}
	pr := persistProfile(t, dir, true)
	cached := RunCell(pr, ps.ASGD, 4, core.BNAsync, 1)
	if cached.FinalTestErr != 0.123456789 {
		t.Fatalf("resume re-ran a completed cell (got %v, want sentinel)", cached.FinalTestErr)
	}

	// Interrupted + resume: deleting result.json simulates a kill after the
	// last barrier; the resumed run must reproduce the uninterrupted result
	// bit for bit.
	if err := os.Remove(filepath.Join(rd.Dir(), "result.json")); err != nil {
		t.Fatal(err)
	}
	resumed := RunCell(pr, ps.ASGD, 4, core.BNAsync, 1)
	assertSameResult(t, "interrupted", orig, resumed)
	if !rd.HasResult() {
		t.Fatal("resumed run did not re-persist its result")
	}

	// Corrupted checkpoint: resume falls back to a full re-run, same answer.
	if err := os.Remove(filepath.Join(rd.Dir(), "result.json")); err != nil {
		t.Fatal(err)
	}
	metas, err = rd.Checkpoints()
	if err != nil {
		t.Fatal(err)
	}
	for _, meta := range metas {
		name := fmt.Sprintf("ckpt-%08d.bin", meta.Epoch)
		if err := os.WriteFile(filepath.Join(rd.Dir(), name), []byte("garbage"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	recovered := RunCell(pr, ps.ASGD, 4, core.BNAsync, 1)
	assertSameResult(t, "corrupt-fallback", orig, recovered)
}

// TestResumeFallsBackPastCorruptNewestCheckpoint: with CkptKeep > 1, a
// newest checkpoint whose payload fails to decode does not force a full
// re-run — the resume loop walks back to the next-older stored barrier and
// still reproduces the uninterrupted answer bit for bit.
func TestResumeFallsBackPastCorruptNewestCheckpoint(t *testing.T) {
	dir := t.TempDir()
	p := persistProfile(t, dir, false)
	p.CkptKeep = 2

	orig := RunCell(p, ps.ASGD, 4, core.BNAsync, 1)
	key := ps.ConfigKey(cellConfig(p, ps.ASGD, 4, core.BNAsync, 1))
	rd, err := p.Store.Run(key)
	if err != nil {
		t.Fatal(err)
	}
	metas, err := rd.Checkpoints()
	if err != nil {
		t.Fatal(err)
	}
	if len(metas) < 2 {
		t.Fatalf("retention kept %d checkpoints, need at least 2 to test fallback", len(metas))
	}

	// Simulate a kill plus a mangled latest checkpoint.
	if err := os.Remove(filepath.Join(rd.Dir(), "result.json")); err != nil {
		t.Fatal(err)
	}
	newest := fmt.Sprintf("ckpt-%08d.bin", metas[0].Epoch)
	if err := os.WriteFile(filepath.Join(rd.Dir(), newest), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}

	pr := persistProfile(t, dir, true)
	pr.CkptKeep = 2
	resumed := RunCell(pr, ps.ASGD, 4, core.BNAsync, 1)
	assertSameResult(t, "fallback-resume", orig, resumed)
}

// TestResumeSurvivesMidChainCorruption: with delta checkpoints, a truncated
// chain head AND a bit-flipped base full must both be detected and skipped;
// resume then walks back (-ckpt-keep retains the history) to the newest
// checkpoint whose whole chain is intact and still reproduces the
// uninterrupted answer bit for bit — via a checkpoint, not a full re-run.
func TestResumeSurvivesMidChainCorruption(t *testing.T) {
	dir := t.TempDir()
	p := persistProfile(t, dir, false)
	p.Epochs = 6
	p.CkptKeep = 8
	p.CkptFullEvery = 3 // barriers 1..5 → full, delta, delta, full, delta

	orig := RunCell(p, ps.ASGD, 4, core.BNAsync, 1)
	key := ps.ConfigKey(cellConfig(p, ps.ASGD, 4, core.BNAsync, 1))
	rd, err := p.Store.Run(key)
	if err != nil {
		t.Fatal(err)
	}
	metas, err := rd.Checkpoints()
	if err != nil {
		t.Fatal(err)
	}
	if len(metas) < 3 || metas[0].Full {
		t.Fatalf("scenario needs a delta head with history behind it, got %+v", metas)
	}
	head, base := metas[0].Epoch, metas[0].BaseEpoch

	corrupt := func(epoch int, mangle func([]byte) []byte) {
		name := filepath.Join(rd.Dir(), fmt.Sprintf("ckpt-%08d.bin", epoch))
		b, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(name, mangle(b), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	corrupt(head, func(b []byte) []byte { return b[:len(b)/2] }) // truncation
	corrupt(base, func(b []byte) []byte { b[len(b)/2] ^= 0x40; return b })

	// Both poisoned chains must fail closed, not materialize garbage.
	if _, _, err := rd.LoadChain(head); err == nil {
		t.Fatal("truncated chain head still loads")
	}
	if _, _, err := rd.LoadChain(base); err == nil {
		t.Fatal("bit-flipped base full still loads")
	}

	if err := os.Remove(filepath.Join(rd.Dir(), "result.json")); err != nil {
		t.Fatal(err)
	}
	pr := persistProfile(t, dir, true)
	pr.Epochs = 6
	pr.CkptKeep = 8
	pr.CkptFullEvery = 3
	train, test := data.GenerateCached(pr.Data)
	env := ps.Env{Train: train, Test: test, Build: pr.Model.Build, Cfg: cellConfig(pr, ps.ASGD, 4, core.BNAsync, 1)}
	res, ran := resumeFromCheckpoint(pr, env, rd)
	if !ran {
		t.Fatal("resume fell back to a full re-run instead of the older intact chain")
	}
	assertSameResult(t, "mid-chain-corruption", orig, res)
}

// TestRenderMode: render-mode cells return the persisted result without
// recomputing (proven by a sentinel no run could produce), and a cell whose
// result was never persisted panics with *RenderMissingError naming it.
func TestRenderMode(t *testing.T) {
	dir := t.TempDir()
	p := persistProfile(t, dir, false)
	RunCell(p, ps.ASGD, 4, core.BNAsync, 1)

	key := ps.ConfigKey(cellConfig(p, ps.ASGD, 4, core.BNAsync, 1))
	rd, err := p.Store.Run(key)
	if err != nil {
		t.Fatal(err)
	}
	var doc ps.Result
	if err := rd.LoadResult(&doc); err != nil {
		t.Fatal(err)
	}
	doc.FinalTestErr = 0.987654321
	if err := rd.SaveResult(doc); err != nil {
		t.Fatal(err)
	}

	render := persistProfile(t, dir, false)
	render.Render = true
	got := RunCell(render, ps.ASGD, 4, core.BNAsync, 1)
	if got.FinalTestErr != 0.987654321 {
		t.Fatalf("render recomputed the cell (got %v, want sentinel)", got.FinalTestErr)
	}

	// A missing cell must not silently recompute.
	func() {
		defer func() {
			rec := recover()
			miss, ok := rec.(*RenderMissingError)
			if !ok {
				t.Fatalf("recovered %v (%T), want *RenderMissingError", rec, rec)
			}
			if miss.Cfg.Seed != 77 || !strings.Contains(miss.Error(), "-ckpt-dir") {
				t.Fatalf("unhelpful render error: %v", miss)
			}
		}()
		RunCell(render, ps.ASGD, 4, core.BNAsync, 77)
		t.Fatal("render of a never-run cell returned instead of panicking")
	}()
}

// TestPersistedCellsAreContentAddressed: different configurations land in
// different run directories, identical ones share.
func TestPersistedCellsAreContentAddressed(t *testing.T) {
	dir := t.TempDir()
	p := persistProfile(t, dir, false)
	RunCell(p, ps.ASGD, 4, core.BNAsync, 1)
	RunCell(p, ps.ASGD, 4, core.BNAsync, 2) // different seed
	RunCell(p, ps.ASGD, 4, core.BNAsync, 1) // repeat: same dir
	runs, err := p.Store.Runs()
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 2 {
		t.Fatalf("store holds %d run dirs, want 2", len(runs))
	}
}

// TestRobustnessSeedAveraging pins the -seeds semantics: multi-seed rows
// report the mean with a non-negative spread, single-seed rows a zero one,
// and the recover-opt option doubles the rows with the variant marked.
func TestRobustnessSeedAveraging(t *testing.T) {
	p := tinyProfile()
	p.Epochs = 2
	scns := []scenario.Scenario{
		{Name: "blip", Events: []scenario.Event{
			{At: 100, Kind: scenario.Crash, Worker: 1},
			{At: 170, Kind: scenario.Recover, Worker: 1},
		}},
	}
	rows := Robustness(p, 4, 1, scns, RobustnessOpts{Seeds: 2, RecoverOpt: true})
	if len(rows) != 2*len(RobustnessEntries) {
		t.Fatalf("rows %d, want %d (base + recover-opt per entry)", len(rows), 2*len(RobustnessEntries))
	}
	variants := map[string]int{}
	for _, r := range rows {
		variants[r.Variant]++
		if r.Seeds != 2 {
			t.Fatalf("row %+v reports %d seeds", r, r.Seeds)
		}
		if r.ErrSpread < 0 {
			t.Fatalf("negative spread in %+v", r)
		}
		if r.FinalTestErr < 0 || r.FinalTestErr > 1 {
			t.Fatalf("row %+v has invalid mean error", r)
		}
	}
	if variants[""] != len(RobustnessEntries) || variants["recover-opt"] != len(RobustnessEntries) {
		t.Fatalf("variant counts %v", variants)
	}
	out := RenderRobustness(p, 4, rows).String()
	for _, want := range []string{"recover-opt", "±spread", "seeds=2"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, out)
		}
	}
}

// TestRobustnessTablePersists: the sweep's table artifacts land in the
// store's tables/ area and decode back.
func TestRobustnessTablePersists(t *testing.T) {
	dir := t.TempDir()
	p := persistProfile(t, dir, false)
	p.Epochs = 2
	scns := []scenario.Scenario{scenario.None()}
	rows := Robustness(p, 2, 1, scns, RobustnessOpts{})
	tb := RenderRobustness(p, 2, rows)
	if err := p.Store.SaveTable("robustness", rows, tb.String()); err != nil {
		t.Fatal(err)
	}
	var back []RobustnessRow
	b, err := os.ReadFile(filepath.Join(dir, "tables", "robustness.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if len(back) != len(rows) || back[0].Algo != rows[0].Algo {
		t.Fatalf("table round-trip: %d rows", len(back))
	}
}

// formatOne rewrites a current full checkpoint container the way format 1
// laid it out: each section payload behind a stream header of its own
// ("LCSN", then version 1 as a u64), version 1 in the container header, and
// the framing checksum resealed, so only the version can refuse it.
func formatOne(t *testing.T, b []byte) []byte {
	t.Helper()
	c, err := snapshot.DecodeContainer(b)
	if err != nil {
		t.Fatal(err)
	}
	header := binary.LittleEndian.AppendUint64([]byte("LCSN"), 1)
	payloads := 0
	for i := range c.Sections {
		s := &c.Sections[i]
		s.Payload, s.Sum = append(bytes.Clone(header), s.Payload...), 0
		payloads += len(s.Payload)
	}
	out, err := snapshot.EncodeContainer(c)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(out[4:], 1)
	binary.LittleEndian.PutUint32(out[len(out)-4:], snapshot.Checksum(out[:len(out)-4-payloads]))
	return out
}

// TestResumeOverOlderFormatReRunsCell: a killed LC-ASGD cell whose stored
// checkpoints are all of format 1 does not resume from them — each is
// refused with snapshot.ErrVersion — so the resumed sweep re-runs the cell
// from the start, returns the uninterrupted result bit for bit, and leaves
// checkpoints of the current format behind.
func TestResumeOverOlderFormatReRunsCell(t *testing.T) {
	dir := t.TempDir()
	profile := func(resume bool) Profile {
		p := persistProfile(t, dir, resume)
		p.CkptKeep, p.CkptFullEvery = 8, 1
		return p
	}
	p := profile(false)
	orig := RunCell(p, ps.LCASGD, 4, core.BNAsync, 1)
	rd, err := p.Store.Run(ps.ConfigKey(cellConfig(p, ps.LCASGD, 4, core.BNAsync, 1)))
	if err != nil {
		t.Fatal(err)
	}
	metas, err := rd.Checkpoints()
	if err != nil {
		t.Fatal(err)
	}
	if len(metas) < 2 {
		t.Fatalf("retention kept %d checkpoints, want every barrier", len(metas))
	}
	bin := func(epoch int) string { return filepath.Join(rd.Dir(), fmt.Sprintf("ckpt-%08d.bin", epoch)) }
	for _, m := range metas {
		b, err := os.ReadFile(bin(m.Epoch))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(bin(m.Epoch), formatOne(t, b), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := rd.LoadChain(m.Epoch); !errors.Is(err, snapshot.ErrVersion) {
			t.Fatalf("format-1 checkpoint at epoch %d loads with %v, want ErrVersion", m.Epoch, err)
		}
	}
	if err := os.Remove(filepath.Join(rd.Dir(), "result.json")); err != nil {
		t.Fatal(err)
	}

	pr := profile(true)
	train, test := data.GenerateCached(pr.Data)
	env := ps.Env{Train: train, Test: test, Build: pr.Model.Build, Cfg: cellConfig(pr, ps.LCASGD, 4, core.BNAsync, 1)}
	if _, ran := resumeFromCheckpoint(pr, env, rd); ran {
		t.Fatal("resumed from a format-1 checkpoint")
	}
	assertSameResult(t, "format-1 store", orig, RunCell(pr, ps.LCASGD, 4, core.BNAsync, 1))
	for _, m := range metas {
		if _, _, err := rd.LoadChain(m.Epoch); err != nil {
			t.Fatalf("re-run left epoch %d unloadable: %v", m.Epoch, err)
		}
	}
}
