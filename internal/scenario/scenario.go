// Package scenario defines deterministic timelines of cluster events — cost
// phase shifts (congestion windows scaling compute/communication means),
// per-worker crashes and recoveries, and elastic fleet resizes (workers
// joining or leaving mid-run). The ps engine compiles a Scenario onto its
// simulated clock, so every event fires at an exact virtual time and the run
// stays bit-identical across execution backends and repetitions.
//
// The stationary cluster.CostModel answers "how slow is this fleet"; a
// Scenario answers "what happens to this fleet while it trains". Chen et al.
// (Revisiting Distributed Synchronous SGD) show that straggler and failure
// dynamics dominate the sync-vs-async tradeoff, which is exactly what these
// timelines let the harness stress.
package scenario

import (
	"fmt"
	"sort"

	"lcasgd/internal/cluster"
	"lcasgd/internal/rng"
)

// Kind classifies a cluster event.
type Kind string

const (
	// PhaseShift installs cost multipliers on the sampler: CompScale and
	// CommScale multiply the sampled computation and communication times of
	// the target worker (or the whole fleet when Worker is -1) until the
	// next shift. Scales of 1 restore the nominal cost model.
	PhaseShift Kind = "phase-shift"
	// Crash retires a worker abruptly: its in-flight iteration is lost and
	// it schedules no further work until a Recover event re-admits it.
	Crash Kind = "crash"
	// Recover re-admits a crashed worker; it re-pulls the current server
	// state and resumes iterating.
	Recover Kind = "recover"
	// Join admits a worker that was not part of the initial fleet (elastic
	// scale-up). Identical engine semantics to Recover; the distinct kind
	// keeps timelines readable.
	Join Kind = "join"
	// Leave retires a worker gracefully (elastic scale-down). Identical
	// engine semantics to Crash.
	Leave Kind = "leave"
	// Partition cuts a worker off from the parameter server: the worker
	// keeps computing, but its commits (gradient pushes and BN statistics)
	// are dropped until a Heal event restores connectivity. Dropped commits
	// consume no sample budget — like a crash's lost in-flight work, the
	// computation is simply wasted. A partitioned worker with no Heal left
	// on the timeline parks instead of spinning forever (see the engine's
	// fleet layer).
	Partition Kind = "partition"
	// Heal reconnects a partitioned worker; its next commit lands normally.
	Heal Kind = "heal"
)

// Event is one timeline entry, timestamped in virtual milliseconds.
type Event struct {
	// At is the virtual time of the first occurrence.
	At float64
	// Period, when positive, repeats the event every Period milliseconds
	// after At, and must be at least 1; zero means one-shot. Periodic pairs of PhaseShift events
	// model recurring congestion windows, periodic Crash/Recover pairs a
	// chronically flaky worker.
	Period float64
	Kind   Kind
	// Worker targets one worker by rank. PhaseShift also accepts -1 for the
	// whole fleet. Events targeting ranks beyond the actual fleet size are
	// skipped at compile time, so one scenario serves any worker count.
	Worker int
	// CompScale and CommScale are the PhaseShift multipliers, each in
	// (0, cluster.MaxPhaseScale]. Ignored by the other kinds.
	CompScale, CommScale float64
}

// Scenario is a named, validated timeline of cluster events.
type Scenario struct {
	Name string
	// InitialWorkers caps how many of the configured workers start active;
	// ranks beyond it begin outside the fleet and enter via Join events.
	// Zero means the whole configured fleet starts active.
	InitialWorkers int
	Events         []Event
}

// Validate checks the timeline is well-formed. A scenario must not rely on
// permanently emptying the fleet: the engine truncates such runs rather than
// hanging, which Validate cannot detect statically for periodic timelines.
func (s *Scenario) Validate() error {
	if s.InitialWorkers < 0 {
		return fmt.Errorf("scenario %q: negative InitialWorkers %d", s.Name, s.InitialWorkers)
	}
	for i, ev := range s.Events {
		if err := ev.Validate(); err != nil {
			return fmt.Errorf("scenario %q event %d: %w", s.Name, i, err)
		}
	}
	return nil
}

// Validate checks one event: a known kind, a worker rank the kind accepts,
// times that are numbers of the right sign (the conditions are written so
// that NaN fails them) and scales that pass cluster.CheckPhaseScales.
func (ev Event) Validate() error {
	if !(ev.At >= 0) {
		return fmt.Errorf("negative time %v", ev.At)
	}
	if !(ev.Period >= 0) {
		return fmt.Errorf("negative period %v", ev.Period)
	}
	if ev.Period > 0 && ev.Period < 1 {
		return fmt.Errorf("period %v is under 1 ms: the event would fire so often the run never ends", ev.Period)
	}
	if ev.Period > 0 && ev.At+ev.Period == ev.At {
		return fmt.Errorf("period %v does not move time %v: the event would repeat forever", ev.Period, ev.At)
	}
	switch ev.Kind {
	case PhaseShift:
		if ev.Worker < -1 {
			return fmt.Errorf("bad worker %d", ev.Worker)
		}
		if err := cluster.CheckPhaseScales(ev.CompScale, ev.CommScale); err != nil {
			return err
		}
	case Crash, Recover, Join, Leave, Partition, Heal:
		if ev.Worker < 0 {
			return fmt.Errorf("%s needs a worker rank, got %d", ev.Kind, ev.Worker)
		}
	default:
		return fmt.Errorf("unknown kind %q", ev.Kind)
	}
	return nil
}

// --- canned scenarios (cmd/lcexp -scenario) ---

// None is the empty timeline: the stationary cluster of the paper.
func None() Scenario { return Scenario{Name: "none"} }

// Congestion alternates fleet-wide contention windows: from t=1.2s, every
// 2.4s period spends half its time with computation 2.5× and communication
// 3× slower — the "high and volatile" delays of the paper's introduction,
// made non-stationary.
func Congestion() Scenario {
	return Scenario{
		Name: "congestion",
		Events: []Event{
			{At: 1200, Period: 2400, Kind: PhaseShift, Worker: -1, CompScale: 2.5, CommScale: 3},
			{At: 2400, Period: 2400, Kind: PhaseShift, Worker: -1, CompScale: 1, CommScale: 1},
		},
	}
}

// Flaky gives the fleet two chronically unreliable workers: worker 1 crashes
// every 3s and is down for 700ms; worker 2 crashes on a phase-shifted 3s
// cycle and is down for 500ms.
func Flaky() Scenario {
	return Scenario{
		Name: "flaky",
		Events: []Event{
			{At: 900, Period: 3000, Kind: Crash, Worker: 1},
			{At: 1600, Period: 3000, Kind: Recover, Worker: 1},
			{At: 2300, Period: 3000, Kind: Crash, Worker: 2},
			{At: 2800, Period: 3000, Kind: Recover, Worker: 2},
		},
	}
}

// Elastic starts with a two-worker fleet, scales up by one worker every
// 600ms until the configured size is reached, retires worker 0 at t=4s (a
// graceful scale-down once the late joiners carry the load) and re-admits
// it at t=6s. The re-join matters beyond realism: on a one-replica fleet
// (sequential SGD pins the fleet to one worker and every other event here
// is skipped), an unpaired Leave of worker 0 would permanently empty the
// fleet and silently truncate the run.
func Elastic() Scenario {
	s := Scenario{Name: "elastic", InitialWorkers: 2}
	for rank := 2; rank < 16; rank++ {
		s.Events = append(s.Events, Event{
			At: 600 * float64(rank-1), Kind: Join, Worker: rank,
		})
	}
	s.Events = append(s.Events,
		Event{At: 4000, Kind: Leave, Worker: 0},
		Event{At: 6000, Kind: Join, Worker: 0},
	)
	return s
}

// Partitioned subjects two workers to recurring network partitions: worker
// 1 loses server connectivity every 3s for 800ms, worker 3 on a phase-
// shifted cycle for 600ms. The workers keep computing through each cut —
// the commits they push are dropped, which is what distinguishes a
// partition from the Flaky scenario's crashes (no state or in-flight work
// is lost, only server reachability).
func Partitioned() Scenario {
	return Scenario{
		Name: "partition",
		Events: []Event{
			{At: 1000, Period: 3000, Kind: Partition, Worker: 1},
			{At: 1800, Period: 3000, Kind: Heal, Worker: 1},
			{At: 2200, Period: 3000, Kind: Partition, Worker: 3},
			{At: 2800, Period: 3000, Kind: Heal, Worker: 3},
		},
	}
}

// Mixed overlays Congestion and Flaky: recurring fleet-wide contention plus
// unreliable workers, the harshest canned setting.
func Mixed() Scenario {
	s := Scenario{Name: "mixed"}
	s.Events = append(s.Events, Congestion().Events...)
	s.Events = append(s.Events, Flaky().Events...)
	return s
}

// Randomized generates a seeded random timeline over a fleet of the given
// size: an arbitrary legal mix of crash/recover, leave/join, partition/heal
// pairs and phase shifts, with event times spread across the virtual
// horizon (milliseconds). It is the fuzzer behind the engine's
// randomized-churn property tests — every invariant the canned scenarios
// are checked under (backend bit-equivalence, checkpoint/resume equality,
// no hangs) must hold on any timeline this returns.
//
// The construction keeps every timeline live by design: membership and
// connectivity events come in ordered pairs (each Crash is followed by its
// Recover, each Partition by its Heal), and worker 0 is never crashed or
// removed, so the fleet can never permanently empty — a run under any
// Randomized timeline terminates rather than truncating at a stall.
// Everything is a pure function of (seed, workers, horizon, events).
func Randomized(seed uint64, workers int, horizon float64, events int) Scenario {
	if workers < 1 || horizon <= 0 || events < 0 {
		panic(fmt.Sprintf("scenario: Randomized(%d, %d, %v, %d)", seed, workers, horizon, events))
	}
	g := rng.New(seed)
	s := Scenario{Name: fmt.Sprintf("randomized-%d", seed)}

	// Sometimes start with a partial fleet and let the remaining ranks join
	// mid-run, exercising elastic scale-up at random times.
	initial := workers
	if workers > 2 && g.Float64() < 0.35 {
		initial = 1 + g.Intn(workers-1)
		s.InitialWorkers = initial
		for rank := initial; rank < workers; rank++ {
			s.Events = append(s.Events, Event{
				At: (0.05 + 0.45*g.Float64()) * horizon, Kind: Join, Worker: rank,
			})
		}
	}

	// Per-worker cursors serialize each worker's down/cut windows so the
	// generated pairs nest sensibly (the engine ignores redundant events,
	// so overlap would be legal — just ineffective churn).
	downUntil := make([]float64, workers)
	cutUntil := make([]float64, workers)
	for i := 0; i < events; i++ {
		at := (0.05 + 0.80*g.Float64()) * horizon
		switch k := g.Intn(10); {
		case k < 2: // fleet-wide congestion window: shift, then restore
			s.Events = append(s.Events,
				Event{At: at, Kind: PhaseShift, Worker: -1,
					CompScale: 0.5 + 3*g.Float64(), CommScale: 0.5 + 3*g.Float64()},
				Event{At: at + (0.02+0.1*g.Float64())*horizon, Kind: PhaseShift, Worker: -1,
					CompScale: 1, CommScale: 1},
			)
		case k < 3: // single-worker slowdown
			s.Events = append(s.Events, Event{
				At: at, Kind: PhaseShift, Worker: g.Intn(workers),
				CompScale: 0.5 + 3*g.Float64(), CommScale: 0.5 + 3*g.Float64(),
			})
		case k < 6: // crash/recover or leave/join pair; worker 0 is immune
			if workers == 1 {
				continue
			}
			m := 1 + g.Intn(workers-1)
			if at < downUntil[m] {
				at = downUntil[m] + 0.01*horizon
			}
			dur := (0.03 + 0.12*g.Float64()) * horizon
			downUntil[m] = at + dur + 0.01*horizon
			down, up := Crash, Recover
			if g.Intn(2) == 1 {
				down, up = Leave, Join
			}
			s.Events = append(s.Events,
				Event{At: at, Kind: down, Worker: m},
				Event{At: at + dur, Kind: up, Worker: m},
			)
		default: // partition/heal pair; any worker may be cut
			m := g.Intn(workers)
			if at < cutUntil[m] {
				at = cutUntil[m] + 0.01*horizon
			}
			dur := (0.03 + 0.12*g.Float64()) * horizon
			cutUntil[m] = at + dur + 0.01*horizon
			s.Events = append(s.Events,
				Event{At: at, Kind: Partition, Worker: m},
				Event{At: at + dur, Kind: Heal, Worker: m},
			)
		}
	}
	if err := s.Validate(); err != nil {
		panic(fmt.Sprintf("scenario: Randomized generated an invalid timeline: %v", err))
	}
	return s
}

// canned maps -scenario names to constructors. Constructors (not values)
// keep Lookup results independently mutable.
var canned = map[string]func() Scenario{
	"none":       None,
	"congestion": Congestion,
	"flaky":      Flaky,
	"elastic":    Elastic,
	"partition":  Partitioned,
	"mixed":      Mixed,
}

// Lookup returns the canned scenario with the given name.
func Lookup(name string) (Scenario, error) {
	mk, ok := canned[name]
	if !ok {
		return Scenario{}, fmt.Errorf("scenario: unknown scenario %q (valid: %v)", name, Names())
	}
	return mk(), nil
}

// Names lists the canned scenario names in sorted order.
func Names() []string {
	out := make([]string, 0, len(canned))
	for name := range canned {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Canned returns every canned scenario, ordered by name.
func Canned() []Scenario {
	var out []Scenario
	for _, name := range Names() {
		out = append(out, canned[name]())
	}
	return out
}
