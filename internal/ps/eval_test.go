package ps

import (
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"

	"lcasgd/internal/data"
	"lcasgd/internal/rng"
	"lcasgd/internal/snapshot"
	"lcasgd/internal/telemetry"
	"lcasgd/internal/tensor"
)

// slowEvalEnv is tinyEnvSeeded with a two-batch epoch and a test set of
// test samples, a hundred or more times the train shard: one evaluation
// outlasts several epochs.
func slowEvalEnv(algo Algo, workers, epochs, test int) Env {
	env := tinyEnvSeeded(algo, workers, epochs)
	env.Train, env.Test = data.Generate(data.Config{
		Classes: 4, C: 1, H: 6, W: 6,
		Train: 40, Test: test,
		NoiseSigma: 0.8, SignalScale: 0.5, Smoothing: 1, Seed: 99,
	})
	return env
}

// TestEvalReadsFrozenCopy drives a run whose live server weights are
// overwritten with NaNs right after every boundary hand-off and held that
// way until the evaluation has landed. Every point must still equal the
// inline evaluation of the boundary's (w, BN) — computed here, on the loop,
// by a separate evaluator — which an evaluator aliasing srv.w cannot do.
func TestEvalReadsFrozenCopy(t *testing.T) {
	defer func() { evalHandoff = nil }()
	for _, kind := range []BackendKind{BackendSequential, BackendConcurrent} {
		env := tinyEnvSeeded(ASGD, 4, 3)
		env.Cfg.Backend = kind
		ref := Run(env)

		var inline *evaluator
		var want []Point
		saved := []float64(nil)
		evalHandoff = func(r *recorder, srv *server) {
			if inline == nil {
				inline = newEvaluator(newExecPool(env.Build, r.eval.execs.modelSeed), r.eval.batchSize, seqBackend{})
			}
			if &r.w[0] == &srv.w[0] || r.bn == srv.bnAcc {
				t.Fatalf("%s: recorder evaluates the live server state, not a copy", kind)
			}
			want = append(want, Point{
				Epoch: r.pending.Epoch, Time: r.pending.Time,
				TrainErr: inline.errOn(env.Train, srv.w, srv.bnAcc),
				TestErr:  inline.errOn(env.Test, srv.w, srv.bnAcc),
			})
			saved = append(saved[:0], srv.w...)
			for i := range srv.w {
				srv.w[i] = math.NaN()
			}
			r.drain()
			copy(srv.w, saved)
		}
		res := Run(env)
		evalHandoff = nil
		assertResultsEqual(t, string(kind)+"/scribbled", ref, res)
		if len(want) != len(res.Points) {
			t.Fatalf("%s: %d hand-offs for %d points", kind, len(want), len(res.Points))
		}
		for i, p := range res.Points {
			if p != want[i] {
				t.Fatalf("%s: point %d is %+v, inline evaluation of the boundary state gives %+v", kind, i, p, want[i])
			}
		}
	}
}

// decodePoints reads the curve a full checkpoint container carries.
func decodePoints(t *testing.T, data []byte) []Point {
	t.Helper()
	c, err := snapshot.DecodeContainer(data)
	if err != nil {
		t.Fatal(err)
	}
	var pts []Point
	for _, s := range c.Sections {
		if s.ID.Kind != secRecChunk {
			continue
		}
		r := snapshot.NewReader(s.Payload)
		for n := r.Int(); n > 0; n-- {
			pts = append(pts, Point{Epoch: r.Int(), Time: r.F64(), TrainErr: r.F64(), TestErr: r.F64()})
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return pts
}

// TestEvalCheckpointCadences crosses barrier and evaluation cadences so a
// barrier lands on a boundary (its evaluation typically still in flight
// when the drain reaches quiescence), between boundaries, and on epochs
// that record nothing. Every emitted container must carry exactly the
// complete points of the boundaries crossed so far — the prefix of the
// final curve, no placeholder — and resume from every barrier must reproduce
// the straight-through run.
func TestEvalCheckpointCadences(t *testing.T) {
	for _, kind := range []BackendKind{BackendSequential, BackendConcurrent} {
		for _, ckEvery := range []int{1, 3} {
			for _, evEvery := range []int{1, 2} {
				label := fmt.Sprintf("%s/ckpt%d/eval%d", kind, ckEvery, evEvery)
				mk := func() Env {
					env := slowEvalEnv(ASGD, 4, 7, 4000)
					env.Cfg.Backend = kind
					env.Cfg.CheckpointEvery = ckEvery
					env.Cfg.EvalEvery = evEvery
					return env
				}
				full, cks := runCapturing(mk())
				if len(cks) == 0 {
					t.Fatalf("%s: no checkpoints emitted", label)
				}
				for _, ck := range cks {
					pts := decodePoints(t, ck.Data)
					if want := ck.Epoch/evEvery + 1; len(pts) != want {
						t.Fatalf("%s: barrier at epoch %d carries %d points, want %d", label, ck.Epoch, len(pts), want)
					}
					for i, p := range pts {
						if p != full.Points[i] {
							t.Fatalf("%s: barrier at epoch %d point %d is %+v, the run recorded %+v",
								label, ck.Epoch, i, p, full.Points[i])
						}
					}
					res, err := Resume(mk(), ck.Data)
					if err != nil {
						t.Fatalf("%s: resume from epoch %d: %v", label, ck.Epoch, err)
					}
					assertResultsEqual(t, fmt.Sprintf("%s/resume@%d", label, ck.Epoch), full, res)
				}
			}
		}
	}
}

// TestEvalBackPressure runs evaluations that outlast an epoch, so the next
// boundary finds the previous evaluation still in flight and must wait for
// it. The curve keeps one point per boundary, in boundary order, identical
// on both backends, and the meters show the loop really waited.
func TestEvalBackPressure(t *testing.T) {
	const epochs = 6
	var results []Result
	for _, kind := range []BackendKind{BackendSequential, BackendConcurrent} {
		env := slowEvalEnv(ASGD, 2, epochs, 40000)
		env.Cfg.Backend = kind
		env.Telemetry = telemetry.NewRecorder()
		res := Run(env)
		if len(res.Points) != epochs+1 {
			t.Fatalf("%s: %d points, want %d", kind, len(res.Points), epochs+1)
		}
		for i, p := range res.Points {
			if p.Epoch != i {
				t.Fatalf("%s: point %d is epoch %d", kind, i, p.Epoch)
			}
			if i > 0 && p.Time < res.Points[i-1].Time {
				t.Fatalf("%s: point %d goes back in time", kind, i)
			}
		}
		wall, stall := env.Telemetry.Meter("eval_wall_ms"), env.Telemetry.Meter("eval_stall_ms")
		if int(wall.N) != len(res.Points) || int(stall.N) != len(res.Points) {
			t.Fatalf("%s: meters saw %d/%d evaluations for %d points", kind, wall.N, stall.N, len(res.Points))
		}
		// An epoch here is two tiny batches; an evaluation is 40040 samples.
		// A loaded machine can deschedule the loop for a scheduler slice
		// (a few ms) before it reaches the drain, time the evaluation runs
		// unwaited for; at this size one evaluation outlasts several slices.
		if stall.Sum < wall.Sum/2 {
			t.Fatalf("%s: loop waited %.2f ms for %.2f ms of evaluation; back-pressure never engaged", kind, stall.Sum, wall.Sum)
		}
		results = append(results, res)
	}
	assertResultsEqual(t, "back-pressure", results[0], results[1])
}

// TestEvalJoinedBeforeBackendClose builds an engine the way the commit
// micro-tests do — never run, its first commit starts the epoch-0 point —
// and closes it. The evaluation must be joined there, before the backend it
// runs on goes: its point appended, no goroutine left. A goroutine that has
// sent its report still has to return, and a closed backend's lanes to see
// the close, so the count is polled for up to a few seconds; a goroutine
// that leaked never leaves.
func TestEvalJoinedBeforeBackendClose(t *testing.T) {
	before := runtime.NumGoroutine()
	env := slowEvalEnv(ASGD, 2, 2, 4000)
	env.Cfg = env.Cfg.withDefaults()
	e := newEngine(env, strategyFor(env.Cfg))
	e.strategy.Setup(e)
	e.srv.target = 0
	e.Commit(0, make([]float64, e.NParams()), 0)
	if !e.rec.job.busy || len(e.rec.points) != 0 {
		t.Fatalf("first commit: busy %v with %d points, want an evaluation in flight", e.rec.job.busy, len(e.rec.points))
	}
	e.close()
	if e.rec.job.busy || len(e.rec.points) != 1 || e.rec.points[0].Epoch != 0 {
		t.Fatalf("after close: busy %v, points %+v", e.rec.job.busy, e.rec.points)
	}
	deadline := time.Now().Add(5 * time.Second)
	after := runtime.NumGoroutine()
	for ; after > before && time.Now().Before(deadline); after = runtime.NumGoroutine() {
		time.Sleep(time.Millisecond)
	}
	if after > before {
		t.Fatalf("%d goroutines before the engine, %d 5 s after it closed", before, after)
	}
}

// TestEvalHandoffReusesBuffers pins the boundary hand-off to the recorder's
// own (w, BN) copy across points — refreshed in place, never re-cloned —
// and the whole point (hand-off, goroutine, two passes, append) to a
// handful of small allocations.
func TestEvalHandoffReusesBuffers(t *testing.T) {
	env := tinyEnvSeeded(ASGD, 2, 2)
	env.Cfg = env.Cfg.withDefaults()
	e := newEngine(env, strategyFor(env.Cfg))
	defer e.close()
	r := e.rec
	w0, bn0 := &r.w[0], r.bn
	point := func() {
		r.maybeRecord(e.srv, 0, true)
		r.drain()
	}
	point() // warm the eval pool
	r.points = make([]Point, 0, 64)
	if a := testing.AllocsPerRun(10, point); a > 8 {
		t.Fatalf("a curve point allocates %v times, want <= 8 (errOn's 4 plus the goroutine)", a)
	}
	if &r.w[0] != w0 || r.bn != bn0 {
		t.Fatal("hand-off replaced the recorder's frozen buffers instead of refreshing them")
	}
	e.srv.w[0] = 42
	point()
	if r.w[0] != 42 {
		t.Fatal("hand-off did not refresh the frozen weights")
	}
}

// TestEvalChunksMatchWholeBatch: an evaluation batch run through the net
// evalChunk rows at a time predicts every row as one whole-batch Forward
// does, so the counts are identical — at batch sizes that are a multiple
// of the chunk, that end in a short chunk, that are a chunk or less, and
// with remainder batches.
func TestEvalChunksMatchWholeBatch(t *testing.T) {
	env := convEnvSeeded(ASGD, 1, 2)
	rep, _, w, bnAcc := benchReplica(env)
	rep.pull(w, bnAcc)
	modelSeed := rng.New(env.Cfg.withDefaults().Seed).Uint64()
	ref := env.Build(rng.New(modelSeed))
	ref.Bind(rep.st)
	for _, ds := range []*data.Dataset{env.Train, env.Test} {
		for _, batch := range []int{ds.Len(), 2 * evalChunk, 2*evalChunk + 5, evalChunk, 7} {
			x := newExecPool(env.Build, modelSeed).get()
			x.net.Bind(rep.st)
			net := newEvaluator(nil, batch, seqBackend{}).pool(1)[0]
			got := net.countCorrect(x.net, ds, batch, 0, 1)
			want := 0
			var last []int
			for lo := 0; lo < ds.Len(); lo += batch {
				size := min(batch, ds.Len()-lo)
				idx, y := make([]int, size), make([]int, size)
				for j := range idx {
					idx[j] = lo + j
				}
				x := tensor.New(size, ds.Features())
				ds.BatchInto(x, y, idx)
				last = make([]int, size)
				tensor.ArgmaxRowsInto(last, ref.Forward(x, false))
				for i, p := range last {
					if p == y[i] {
						want++
					}
				}
			}
			if got != want {
				t.Fatalf("%d samples, batch %d: chunked evaluation counts %d correct, whole batches %d", ds.Len(), batch, got, want)
			}
			for i, p := range last {
				if net.pred[i] != p {
					t.Fatalf("%d samples, batch %d: last batch row %d predicted %d chunked, %d whole", ds.Len(), batch, i, net.pred[i], p)
				}
			}
		}
	}
}
