package snapshot

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Store is the on-disk experiment store: one content-addressed directory
// per run (keyed by the run's configuration hash) holding the config, the
// latest checkpoint, the learning curve and the final result, plus a
// tables/ area for sweep-level artifacts (robustness grids). The layout is
// what makes `lcexp -resume` cheap: a completed run is one JSON load, an
// interrupted one resumes from its last checkpoint, and only never-started
// runs pay full compute.
//
//	<root>/runs/<key>/config.json      run configuration + profile metadata
//	                  ckpt-NNNNNNNN.bin   checkpoint payload at barrier epoch N
//	                  ckpt-NNNNNNNN.json  its metadata (epoch, progress)
//	                  curve.json       learning-curve points of the final result
//	                  result.json      full final result; its presence marks
//	                                   the run complete
//	<root>/tables/<name>.json|.txt     sweep artifacts
//
// Checkpoints are epoch-numbered; a RunDir retains the newest Keep of them
// (default 1), pruning older ones after each save. Keeping K > 1 lets resume
// fall back past a latest checkpoint that turns out to be unreadable or
// undecodable (disk corruption) instead of recomputing from scratch.
//
// All writes are atomic (temp file + rename), so a run killed mid-write
// leaves the previous artifact intact rather than a truncated one.
type Store struct {
	root string
}

// ErrNoCheckpoint reports that a run directory holds no checkpoint yet.
var ErrNoCheckpoint = errors.New("snapshot: no checkpoint in run directory")

// OpenStore opens (creating if needed) a store rooted at dir.
func OpenStore(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("snapshot: empty store path")
	}
	for _, sub := range []string{"runs", "tables"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("snapshot: open store: %w", err)
		}
	}
	return &Store{root: dir}, nil
}

// Root returns the store's root directory.
func (s *Store) Root() string { return s.root }

// Run returns the run directory for the given content key, creating it on
// first use. Keys are hex config hashes; the directory name is the first 16
// characters, enough to be unique and short enough to read.
func (s *Store) Run(key string) (*RunDir, error) {
	if len(key) < 16 {
		return nil, fmt.Errorf("snapshot: run key %q too short", key)
	}
	dir := filepath.Join(s.root, "runs", key[:16])
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("snapshot: run dir: %w", err)
	}
	return &RunDir{dir: dir, key: key, keep: 1}, nil
}

// Runs lists the run-directory names currently in the store, sorted.
func (s *Store) Runs() ([]string, error) {
	ents, err := os.ReadDir(filepath.Join(s.root, "runs"))
	if err != nil {
		return nil, err
	}
	var out []string
	for _, e := range ents {
		if e.IsDir() {
			out = append(out, e.Name())
		}
	}
	sort.Strings(out)
	return out, nil
}

// SaveTable writes a sweep-level artifact twice: the structured rows as
// <name>.json and the rendered text as <name>.txt.
func (s *Store) SaveTable(name string, rows any, text string) error {
	if err := writeJSONAtomic(filepath.Join(s.root, "tables", name+".json"), rows); err != nil {
		return err
	}
	return writeFileAtomic(filepath.Join(s.root, "tables", name+".txt"), []byte(text))
}

// RunDir is one run's artifact directory.
type RunDir struct {
	dir  string
	key  string
	keep int // checkpoints retained (≥1)
}

// SetKeep sets how many checkpoints the directory retains; values below 1
// mean 1 (the default — only the latest survives).
func (r *RunDir) SetKeep(k int) {
	if k < 1 {
		k = 1
	}
	r.keep = k
}

// Dir returns the directory path.
func (r *RunDir) Dir() string { return r.dir }

// CkptMeta describes a stored checkpoint without decoding its payload.
// Full/BaseEpoch mirror the container's chain fields (container.go): a
// delta checkpoint is only restorable together with its base chain, which
// resume logic walks via BaseEpoch and prune refuses to break.
type CkptMeta struct {
	Key       string  `json:"key"`        // full config hash, for collision detection
	Epoch     int     `json:"epoch"`      // completed global epochs at the barrier
	Batches   int     `json:"batches"`    // mini-batches consumed
	Updates   int     `json:"updates"`    // server updates applied
	VirtualMs float64 `json:"virtual_ms"` // virtual time of the barrier
	Full      bool    `json:"full"`       // self-contained snapshot vs delta
	BaseEpoch int     `json:"base_epoch"` // delta only: epoch of the previous link
}

// WriteConfig stores the run's configuration document (overwriting — the
// config is derived from the key, so rewrites are idempotent).
func (r *RunDir) WriteConfig(v any) error {
	return writeJSONAtomic(filepath.Join(r.dir, "config.json"), v)
}

// ckptBase returns the epoch-numbered checkpoint filename stem.
func ckptBase(epoch int) string { return fmt.Sprintf("ckpt-%08d", epoch) }

// SaveCheckpoint stores a checkpoint under its barrier epoch, then prunes
// checkpoints beyond the retention count (SetKeep). The payload is written
// before the metadata — a metadata file always has its payload — and writes
// are atomic, so a crash at any point leaves only complete checkpoints
// visible. Saving the same epoch twice overwrites idempotently.
func (r *RunDir) SaveCheckpoint(data []byte, meta CkptMeta) error {
	meta.Key = r.key
	base := ckptBase(meta.Epoch)
	if err := writeFileAtomic(filepath.Join(r.dir, base+".bin"), data); err != nil {
		return err
	}
	if err := writeJSONAtomic(filepath.Join(r.dir, base+".json"), meta); err != nil {
		return err
	}
	return r.prune()
}

// prune removes checkpoints beyond the newest keep, metadata first so a
// concurrent reader never finds a meta whose payload is gone for good, then
// any orphaned payloads left by an earlier crash.
//
// Retention is chain-closed: a retained delta checkpoint keeps its whole
// base chain (walked via CkptMeta.BaseEpoch down to a full snapshot) alive
// even when the bases fall outside the newest keep — deleting a base would
// silently make every delta above it unrestorable, which is exactly the
// corruption -ckpt-keep exists to survive.
func (r *RunDir) prune() error {
	metas, err := r.Checkpoints()
	if err != nil {
		return err
	}
	byEpoch := make(map[int]CkptMeta, len(metas))
	for _, m := range metas {
		byEpoch[m.Epoch] = m
	}
	keep := map[int]bool{}
	for i, m := range metas {
		if i >= r.keep {
			break
		}
		for !keep[m.Epoch] {
			keep[m.Epoch] = true
			if m.Full {
				break
			}
			base, ok := byEpoch[m.BaseEpoch]
			if !ok {
				break // broken chain; resume falls back past it
			}
			m = base
		}
	}
	live := map[string]bool{}
	for _, m := range metas {
		if keep[m.Epoch] {
			live[ckptBase(m.Epoch)] = true
			continue
		}
		base := ckptBase(m.Epoch)
		if err := os.Remove(filepath.Join(r.dir, base+".json")); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return fmt.Errorf("snapshot: prune: %w", err)
		}
		if err := os.Remove(filepath.Join(r.dir, base+".bin")); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return fmt.Errorf("snapshot: prune: %w", err)
		}
	}
	bins, err := filepath.Glob(filepath.Join(r.dir, "ckpt-*.bin"))
	if err != nil {
		return err
	}
	for _, bin := range bins {
		base := strings.TrimSuffix(filepath.Base(bin), ".bin")
		if live[base] {
			continue
		}
		if _, err := os.Stat(filepath.Join(r.dir, base+".json")); errors.Is(err, fs.ErrNotExist) {
			if err := os.Remove(bin); err != nil && !errors.Is(err, fs.ErrNotExist) {
				return fmt.Errorf("snapshot: prune orphan: %w", err)
			}
		}
	}
	return nil
}

// Checkpoints lists the stored checkpoints' metadata, newest (highest
// epoch) first. Unreadable metadata files are skipped — resume treats them
// like absent checkpoints rather than refusing the whole run.
func (r *RunDir) Checkpoints() ([]CkptMeta, error) {
	paths, err := filepath.Glob(filepath.Join(r.dir, "ckpt-*.json"))
	if err != nil {
		return nil, err
	}
	metas := make([]CkptMeta, 0, len(paths))
	for _, p := range paths {
		var m CkptMeta
		if err := readJSON(p, &m); err != nil {
			continue
		}
		metas = append(metas, m)
	}
	sort.Slice(metas, func(i, j int) bool { return metas[i].Epoch > metas[j].Epoch })
	return metas, nil
}

// LoadCheckpointAt returns the checkpoint stored for one barrier epoch, or
// ErrNoCheckpoint. A key mismatch (two configs colliding on the same
// 16-char directory) is surfaced rather than resumed.
func (r *RunDir) LoadCheckpointAt(epoch int) ([]byte, CkptMeta, error) {
	base := ckptBase(epoch)
	var meta CkptMeta
	if err := readJSON(filepath.Join(r.dir, base+".json"), &meta); err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, meta, ErrNoCheckpoint
		}
		return nil, meta, err
	}
	if meta.Key != "" && meta.Key != r.key {
		return nil, meta, fmt.Errorf("snapshot: run dir %s holds checkpoint for key %.16s…, want %.16s…",
			r.dir, meta.Key, r.key)
	}
	data, err := os.ReadFile(filepath.Join(r.dir, base+".bin"))
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, meta, ErrNoCheckpoint
		}
		return nil, meta, err
	}
	return data, meta, nil
}

// LoadChain returns the checkpoint stored at epoch as a self-contained
// container: a full snapshot loads directly, a delta loads together with
// its base chain — walked via CkptMeta.BaseEpoch down to a full — and is
// replayed through Materialize. Any missing or unreadable link fails the
// whole load (the caller is expected to fall back to an older epoch via
// Checkpoints), as does a meta chain that never reaches a full snapshot.
func (r *RunDir) LoadChain(epoch int) ([]byte, CkptMeta, error) {
	var (
		links   [][]byte
		topMeta CkptMeta
	)
	seen := map[int]bool{}
	for at := epoch; ; {
		if seen[at] {
			return nil, topMeta, fmt.Errorf("%w: checkpoint chain at epoch %d loops", ErrChainBroken, epoch)
		}
		seen[at] = true
		data, meta, err := r.LoadCheckpointAt(at)
		if err != nil {
			return nil, topMeta, err
		}
		if len(links) == 0 {
			topMeta = meta
		}
		links = append(links, data)
		if meta.Full {
			break
		}
		at = meta.BaseEpoch
	}
	if len(links) == 1 {
		// A lone full still gets verified here: the meta sidecar promised
		// Full, but only the container's own checksums prove the bytes are
		// intact, and the caller's fall-back decision happens at this load.
		c, err := DecodeContainer(links[0])
		if err != nil {
			return nil, topMeta, err
		}
		if c.Kind != KindFull {
			return nil, topMeta, ErrNotFull
		}
		return links[0], topMeta, nil
	}
	for i, j := 0, len(links)-1; i < j; i, j = i+1, j-1 {
		links[i], links[j] = links[j], links[i]
	}
	data, err := Materialize(links...)
	return data, topMeta, err
}

// SaveResult stores the final result document and marks the run complete.
func (r *RunDir) SaveResult(v any) error {
	return writeJSONAtomic(filepath.Join(r.dir, "result.json"), v)
}

// LoadResult decodes the final result into v; fs.ErrNotExist when the run
// never completed.
func (r *RunDir) LoadResult(v any) error {
	return readJSON(filepath.Join(r.dir, "result.json"), v)
}

// HasResult reports whether the run completed (result.json exists).
func (r *RunDir) HasResult() bool {
	_, err := os.Stat(filepath.Join(r.dir, "result.json"))
	return err == nil
}

// SaveCurve stores the learning-curve points separately from the full
// result so plotting tools can grab just the series.
func (r *RunDir) SaveCurve(v any) error {
	return writeJSONAtomic(filepath.Join(r.dir, "curve.json"), v)
}

// writeJSONAtomic marshals v (indented, trailing newline) and writes it
// atomically.
func writeJSONAtomic(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("snapshot: marshal %s: %w", filepath.Base(path), err)
	}
	return writeFileAtomic(path, append(b, '\n'))
}

// writeFileAtomic writes data to path via a temp file + rename so readers
// never observe a partial artifact.
//
// Crash ordering: the temp file is fsync'd *before* the rename (so the
// rename can never publish a name whose blocks are still unwritten — on a
// power cut that ordering is what distinguishes "old artifact" from
// "truncated garbage under the final name"), and the parent directory is
// fsync'd *after* it (the rename itself lives in the directory, so until
// the dirent is durable a crash right after commit could lose the file
// entirely even though its data blocks survived). Result: at every crash
// point the final name holds either the complete previous artifact or the
// complete new one, durably.
func writeFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	name := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(name)
		return fmt.Errorf("snapshot: write %s: %w", filepath.Base(path), err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(name)
		return fmt.Errorf("snapshot: sync %s: %w", filepath.Base(path), err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(name)
		return fmt.Errorf("snapshot: close %s: %w", filepath.Base(path), err)
	}
	if err := os.Rename(name, path); err != nil {
		os.Remove(name)
		return fmt.Errorf("snapshot: %w", err)
	}
	return syncDir(dir)
}

// WriteFileAtomic is writeFileAtomic for sibling artifact writers (trace
// and metrics dumps next to an experiment store): the same temp-file +
// fsync + rename discipline, so a killed invocation leaves either the
// previous complete artifact or the new one, never a truncated mix.
func WriteFileAtomic(path string, data []byte) error {
	return writeFileAtomic(path, data)
}

// syncDir fsyncs a directory, making its entries (a just-committed rename)
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("snapshot: sync dir: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("snapshot: sync dir %s: %w", filepath.Base(dir), err)
	}
	return nil
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("snapshot: decode %s: %w", filepath.Base(path), err)
	}
	return nil
}
