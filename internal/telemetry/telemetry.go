// Package telemetry is the deterministic observability layer of the
// training engine: a typed event trace of every engine transition plus a
// registry of counters, gauges, fixed-bucket histograms and per-worker
// vectors, all timestamped on the simulated clock.
//
// Two rules make the layer composable with the engine's reproducibility
// contract (see DESIGN.md, "Telemetry"):
//
//   - Determinism. Every event and every deterministic instrument derives
//     exclusively from event-loop state and virtual-clock time, so the
//     recorded stream is byte-identical across execution backends and
//     across a checkpoint/resume split. Wall-clock measurements (checkpoint
//     encode/write times, emitted bytes under a given full/delta cadence)
//     live in a separate "measured" group (Meter) that is explicitly
//     outside the byte-identity contract and never checkpointed.
//
//   - Passivity. Recording must not perturb the run: a nil recorder keeps
//     the engine's hot paths at zero allocations per operation, and an
//     attached recorder never changes a result bit — it only observes.
package telemetry

// Kind enumerates the engine transitions the trace captures. The numeric
// values are part of the checkpoint serialization format; append, never
// reorder.
type Kind uint8

const (
	// KLaunch marks a worker's iteration being armed (instant).
	KLaunch Kind = iota
	// KDispatch marks a worker's gradient task (forward + backward) handed
	// to the backend (instant).
	KDispatch
	// KCommit is a parameter-server commit span: At is the launch time of
	// the committing iteration, Dur the full pull→compute→push latency,
	// A the staleness the gradient landed with.
	KCommit
	// KDrop is a commit dropped at a partitioned worker (instant).
	KDrop
	// KGossip is a decentralized commit span (like KCommit); A is the
	// averaged partner's rank (-1 when the worker stepped alone), B the
	// iteration lag the exchange observed.
	KGossip
	// KUpdate is one server update landing (instant, run lane) — the only
	// per-update transition SSGD's barrier fold exposes.
	KUpdate
	// Scenario transitions, one per applied (non-redundant) timeline event.
	KCrash
	KRecover
	KJoin
	KLeave
	KPartition
	KHeal
	// KPhaseShift carries the congestion scales fixed-point ×1e6 in A
	// (compute) and B (communication); Worker -1 targets the whole fleet.
	KPhaseShift
	// KBarrier is a checkpoint barrier drain span on the run lane: At is
	// when the quiescent drain was armed, Dur how long the in-flight
	// pipelines took to drain.
	KBarrier
	// KCheckpoint marks the quiescent point a snapshot was taken at
	// (instant, run lane); A is the completed epoch. Deliberately no
	// full/delta or byte payload: those depend on the process's emission
	// history, which a resume restarts.
	KCheckpoint
	// KCompensate is one LC-ASGD state push the server answered (instant),
	// emitted by the commit that applies the compensation scale, with At the
	// time of the push it answers: A is the predicted staleness k̂, B the
	// scale the commit multiplies the worker's gradient by, fixed-point ×1e6
	// (1e6 while compensation is gated off in the first epoch). A push whose
	// commit never comes — its worker crashed, or the budget ran out — has
	// none.
	KCompensate

	// NumKinds bounds the kinds: every Kind below it is one of the above.
	NumKinds
)

// kindNames maps Kind to its stable wire/display name.
var kindNames = [NumKinds]string{
	"launch", "dispatch", "commit", "drop", "gossip", "update",
	"crash", "recover", "join", "leave", "partition", "heal",
	"phase-shift", "barrier", "checkpoint", "compensate",
}

// String returns the kind's stable display name.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// Event is one engine transition. The struct is a fixed-size value — no
// pointers, no per-kind payload types — so emitting one is an append into
// the recorder's slice and serializing one is six codec words.
type Event struct {
	Kind   Kind
	Worker int32   // lane: worker rank, or -1 for the run-global lane
	At     float64 // virtual ms; span start when Dur > 0
	Dur    float64 // span length in virtual ms; 0 means an instant event
	A, B   int64   // kind-specific arguments (see the Kind docs)
}

// Recorder is one run's telemetry sink: the event trace, the deterministic
// metrics registry, and the measured (wall-clock) meters. A Recorder is
// single-run: the engine binds it exactly once, so per-run state cannot be
// silently merged across runs.
type Recorder struct {
	Events  []Event
	Metrics *Metrics
	meters  []*Meter
	bound   bool
}

// NewRecorder returns an empty recorder ready to attach to a run.
func NewRecorder() *Recorder {
	return &Recorder{Metrics: NewMetrics()}
}

// Bind claims the recorder for one run. It panics on reuse: instruments and
// events from two runs folded into one recorder would be indistinguishable
// from a single run's, which is exactly the silent corruption this guards.
func (r *Recorder) Bind() {
	if r.bound {
		panic("telemetry: Recorder already bound to a run")
	}
	r.bound = true
}

// Bound reports whether a run has claimed (and therefore populated) the
// recorder — false for a cell whose result was loaded from a store instead
// of computed.
func (r *Recorder) Bound() bool { return r.bound }

// Rollback resets the recorder to its pristine unbound state. It exists for
// exactly one situation: a run bound the recorder but failed before
// producing anything meaningful (e.g. a resume attempt against a checkpoint
// whose telemetry presence does not match), and the caller will retry —
// another checkpoint, or a full rerun — with the same recorder. Partial
// instruments and events from the failed attempt are discarded wholesale.
func (r *Recorder) Rollback() {
	r.Events = nil
	r.Metrics = NewMetrics()
	r.meters = nil
	r.bound = false
}

// Emit appends one event to the trace.
func (r *Recorder) Emit(ev Event) { r.Events = append(r.Events, ev) }

// Meter registers (or returns) a named measured-group accumulator. Meters
// hold wall-clock and emission-policy observations — real encode/write
// times, bytes under the process's full/delta cadence — which are genuinely
// useful but not deterministic, so they are dumped under a separate
// "measured" key and excluded from the byte-identity contract and from
// checkpoints. A nil recorder returns a nil meter, which observes nothing.
func (r *Recorder) Meter(name string) *Meter {
	if r == nil {
		return nil
	}
	for _, m := range r.meters {
		if m.Name == name {
			return m
		}
	}
	m := &Meter{Name: name}
	r.meters = append(r.meters, m)
	return m
}

// Meters returns the registered measured-group accumulators in
// registration order.
func (r *Recorder) Meters() []*Meter { return r.meters }

// Meter accumulates one non-deterministic measurement series: count, sum
// and max. Units are the meter's own (milliseconds, bytes, …).
type Meter struct {
	Name string  `json:"name"`
	N    uint64  `json:"n"`
	Sum  float64 `json:"sum"`
	Max  float64 `json:"max"`
}

// Observe folds one measurement into the meter; a nil meter ignores it.
func (m *Meter) Observe(v float64) {
	if m == nil {
		return
	}
	m.N++
	m.Sum += v
	if v > m.Max {
		m.Max = v
	}
}
