package trainer

import (
	"fmt"

	"lcasgd/internal/ps"
	"lcasgd/internal/snapshot"
)

// This file wires the experiment store into the cell runner: every run
// under a Profile with a Store becomes durable. The lifecycle per cell,
// keyed by ps.ConfigKey (so the same cell in a re-invoked sweep lands in
// the same run directory):
//
//  1. Resume mode + result.json present  →  load the stored result, run
//     nothing. This is what makes `lcexp -resume` skip completed runs.
//  2. Resume mode + checkpoint present   →  ps.Resume from the latest
//     barrier; only the remaining epochs are computed, and the result is
//     bit-identical to an uninterrupted run (ps's resume-equivalence
//     contract).
//  3. Otherwise                          →  full run, with every barrier's
//     checkpoint persisted so a kill at any point loses at most
//     CkptEvery epochs of work.
//
// Store failures panic: the whole point of a persisted sweep is that its
// artifacts survive, so silently continuing without them would be worse
// than stopping.

// storedConfig is the human-readable config.json document of a run
// directory.
type storedConfig struct {
	Profile string    `json:"profile"`
	Key     string    `json:"key"`
	Config  ps.Config `json:"config"`
}

// RenderMissingError is the panic value of a render-mode cell whose
// persisted result is absent: the sweep being re-rendered never completed
// this cell. A sweep re-raises it as itself at any Profile.Jobs, and
// cmd/lcexp catches it to print a clear message instead of a stack trace.
type RenderMissingError struct {
	Profile string
	Key     string
	Cfg     ps.Config
}

func (e *RenderMissingError) Error() string {
	return fmt.Sprintf("render: no persisted result for cell %s algo=%s M=%d seed=%d (run %.16s…) — run the experiment with -ckpt-dir first",
		e.Profile, e.Cfg.Algo, e.Cfg.Workers, e.Cfg.Seed, e.Key)
}

// runCellPersisted executes env through the profile's experiment store, in
// the run directory of key, env.Cfg's ps.ConfigKey.
func runCellPersisted(p Profile, env ps.Env, key string) ps.Result {
	cfg := env.Cfg
	rd, err := p.Store.Run(key)
	if err != nil {
		panic(fmt.Sprintf("trainer: experiment store: %v", err))
	}
	rd.SetKeep(p.CkptKeep)

	if p.Render {
		// Render mode computes nothing and writes nothing: either the cell's
		// persisted result exists, or the error names exactly which cell is
		// missing.
		var res ps.Result
		if rd.HasResult() {
			if err := rd.LoadResult(&res); err == nil {
				return res
			}
		}
		panic(&RenderMissingError{Profile: p.Name, Key: key, Cfg: cfg})
	}

	if p.Resume && rd.HasResult() {
		var res ps.Result
		if err := rd.LoadResult(&res); err == nil {
			return res
		}
		// A corrupt result document falls through to recomputation.
	}

	if err := rd.WriteConfig(storedConfig{Profile: p.Name, Key: key, Config: cfg}); err != nil {
		panic(fmt.Sprintf("trainer: experiment store: %v", err))
	}
	env.CheckpointSink = func(ck ps.Checkpoint) error {
		return rd.SaveCheckpoint(ck.Data, ck.CkptMeta)
	}

	res, ran := resumeFromCheckpoint(p, env, rd)
	if !ran {
		res = ps.Run(env)
	}

	if err := rd.SaveResult(res); err != nil {
		panic(fmt.Sprintf("trainer: experiment store: %v", err))
	}
	if err := rd.SaveCurve(res.Points); err != nil {
		panic(fmt.Sprintf("trainer: experiment store: %v", err))
	}
	return res
}

// resumeFromCheckpoint attempts case 2 of the lifecycle, trying stored
// checkpoints newest-first: a checkpoint whose delta chain reads or decodes
// badly (corrupted link, missing base, changed binary semantics) falls back
// to the next-older one (Profile.CkptKeep retains more than the latest),
// and only when every stored checkpoint fails does the cell fall back to a
// full re-run rather than aborting the sweep. A delta whose base is broken
// and the base itself both fail here, so the fallback lands on the newest
// intact full checkpoint.
func resumeFromCheckpoint(p Profile, env ps.Env, rd *snapshot.RunDir) (ps.Result, bool) {
	if !p.Resume || env.Cfg.CheckpointEvery <= 0 {
		return ps.Result{}, false
	}
	metas, err := rd.Checkpoints()
	if err != nil {
		panic(fmt.Sprintf("trainer: experiment store: %v", err))
	}
	for _, meta := range metas {
		data, _, err := rd.LoadChain(meta.Epoch)
		if err != nil {
			// Any chain failure — a missing or truncated link, a checksum
			// mismatch, a base that predates retention — just disqualifies
			// this checkpoint; an older one may still be whole.
			continue
		}
		res, err := ps.Resume(env, data)
		if err != nil {
			continue
		}
		return res, true
	}
	return ps.Result{}, false
}
