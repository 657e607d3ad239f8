package snapshot

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func TestStoreRunLifecycle(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := "0123456789abcdef0123456789abcdef"
	rd, err := st.Run(key)
	if err != nil {
		t.Fatal(err)
	}
	if rd.HasResult() {
		t.Fatal("fresh run dir claims a result")
	}
	if metas, err := rd.Checkpoints(); err != nil || len(metas) != 0 {
		t.Fatalf("fresh run dir lists checkpoints %+v (err %v)", metas, err)
	}
	if _, _, err := rd.LoadCheckpointAt(3); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("err %v, want ErrNoCheckpoint", err)
	}

	if err := rd.WriteConfig(map[string]any{"algo": "ASGD", "seed": 7}); err != nil {
		t.Fatal(err)
	}
	ck := []byte("pretend-checkpoint-bytes")
	if err := rd.SaveCheckpoint(ck, CkptMeta{Epoch: 3, Batches: 120, Updates: 118, VirtualMs: 4200.5}); err != nil {
		t.Fatal(err)
	}
	metas, err := rd.Checkpoints()
	if err != nil || len(metas) != 1 {
		t.Fatalf("checkpoints %+v (err %v), want one", metas, err)
	}
	data, meta, err := rd.LoadCheckpointAt(metas[0].Epoch)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(ck) || meta.Epoch != 3 || meta.Key != key {
		t.Fatalf("checkpoint round-trip: %q %+v", data, meta)
	}

	type res struct {
		Err  float64
		Pts  int
		Name string
	}
	if err := rd.SaveResult(res{Err: 0.125, Pts: 12, Name: "asgd"}); err != nil {
		t.Fatal(err)
	}
	if err := rd.SaveCurve([]float64{1, 0.5, 0.25}); err != nil {
		t.Fatal(err)
	}
	var back res
	if err := rd.LoadResult(&back); err != nil {
		t.Fatal(err)
	}
	if back.Err != 0.125 || back.Pts != 12 || back.Name != "asgd" {
		t.Fatalf("result round-trip: %+v", back)
	}
	if !rd.HasResult() {
		t.Fatal("completed run not detected")
	}

	// Reopening the store finds the same run.
	st2, err := OpenStore(st.Root())
	if err != nil {
		t.Fatal(err)
	}
	runs, err := st2.Runs()
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 || runs[0] != key[:16] {
		t.Fatalf("runs: %v", runs)
	}
}

// With the default retention (keep 1) every save prunes the previous
// checkpoint — today's single-slot behavior, now expressed as K=1.
func TestStoreKeepDefaultRetainsOne(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rd, err := st.Run("0123456789abcdef0123456789abcdef")
	if err != nil {
		t.Fatal(err)
	}
	for ep := 1; ep <= 3; ep++ {
		if err := rd.SaveCheckpoint([]byte{byte(ep)}, CkptMeta{Epoch: ep}); err != nil {
			t.Fatal(err)
		}
	}
	metas, err := rd.Checkpoints()
	if err != nil {
		t.Fatal(err)
	}
	if len(metas) != 1 || metas[0].Epoch != 3 {
		t.Fatalf("default retention kept %+v, want only epoch 3", metas)
	}
}

// SetKeep(K) retains the newest K checkpoints, listed newest-first.
func TestStoreKeepKRetainsNewest(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rd, err := st.Run("0123456789abcdef0123456789abcdef")
	if err != nil {
		t.Fatal(err)
	}
	rd.SetKeep(2)
	for ep := 1; ep <= 4; ep++ {
		if err := rd.SaveCheckpoint([]byte{byte(ep)}, CkptMeta{Epoch: ep, Updates: ep * 10}); err != nil {
			t.Fatal(err)
		}
	}
	metas, err := rd.Checkpoints()
	if err != nil {
		t.Fatal(err)
	}
	if len(metas) != 2 || metas[0].Epoch != 4 || metas[1].Epoch != 3 {
		t.Fatalf("retention kept %+v, want epochs [4 3]", metas)
	}
	data, meta, err := rd.LoadCheckpointAt(metas[0].Epoch)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Epoch != 4 || data[0] != 4 {
		t.Fatalf("newest listed checkpoint loads epoch %d payload %v, want 4", meta.Epoch, data)
	}
	if _, _, err := rd.LoadCheckpointAt(1); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("pruned epoch still loads: %v", err)
	}
	// Pruned files are actually gone from disk.
	bins, _ := filepath.Glob(filepath.Join(rd.Dir(), "ckpt-*.bin"))
	if len(bins) != 2 {
		t.Fatalf("%d payload files on disk, want 2: %v", len(bins), bins)
	}
}

// When the newest checkpoint's payload is lost on disk, the resume walk
// (trainer's resumeFromCheckpoint: Checkpoints newest first, LoadChain each)
// is told so with ErrNoCheckpoint and lands on the next-newest one.
func TestStoreFallsBackPastMissingNewestPayload(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rd, err := st.Run("0123456789abcdef0123456789abcdef")
	if err != nil {
		t.Fatal(err)
	}
	rd.SetKeep(3)
	fulls := map[int][]byte{}
	for ep := 1; ep <= 3; ep++ {
		fulls[ep] = mustEncode(t, &Container{
			Kind: KindFull, Key: "k", Epoch: ep, Seq: ep,
			Sections: []Section{{ID: SectionID{0, 0}, Payload: secStream(t, float64(ep))}},
		})
		if err := rd.SaveCheckpoint(fulls[ep], CkptMeta{Epoch: ep, Full: true}); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Remove(filepath.Join(rd.Dir(), "ckpt-00000003.bin")); err != nil {
		t.Fatal(err)
	}
	metas, err := rd.Checkpoints()
	if err != nil || len(metas) != 3 || metas[0].Epoch != 3 {
		t.Fatalf("checkpoints %+v (err %v), want epochs [3 2 1]", metas, err)
	}
	if _, _, err := rd.LoadChain(metas[0].Epoch); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("newest without payload: err %v, want ErrNoCheckpoint", err)
	}
	data, meta, err := rd.LoadChain(metas[1].Epoch)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Epoch != 2 || !bytes.Equal(data, fulls[2]) {
		t.Fatalf("fallback loaded epoch %d, want 2's bytes", meta.Epoch)
	}
}

func TestStoreDetectsKeyCollision(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// Two keys sharing a 16-char prefix map to the same directory; loading
	// the other key's checkpoint must fail rather than resume a wrong run.
	a := "aaaaaaaaaaaaaaaa1111111111111111"
	b := "aaaaaaaaaaaaaaaa2222222222222222"
	ra, err := st.Run(a)
	if err != nil {
		t.Fatal(err)
	}
	if err := ra.SaveCheckpoint([]byte("x"), CkptMeta{Epoch: 1}); err != nil {
		t.Fatal(err)
	}
	rb, err := st.Run(b)
	if err != nil {
		t.Fatal(err)
	}
	metas, err := rb.Checkpoints()
	if err != nil || len(metas) != 1 {
		t.Fatalf("checkpoints %+v (err %v), want the colliding one", metas, err)
	}
	if _, _, err := rb.LoadCheckpointAt(metas[0].Epoch); err == nil || errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("collision not detected: err %v", err)
	}
}

func TestStoreSaveTable(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rows := []map[string]any{{"algo": "SSGD", "err": 0.2}}
	if err := st.SaveTable("robustness", rows, "rendered table\n"); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"robustness.json", "robustness.txt"} {
		if _, err := os.Stat(filepath.Join(st.Root(), "tables", name)); err != nil {
			t.Fatalf("missing %s: %v", name, err)
		}
	}
}

func TestStoreRejectsShortKey(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Run("short"); err == nil {
		t.Fatal("short key accepted")
	}
}
