package scenario

import (
	"math"
	"sort"
	"strings"
	"testing"
)

func TestCannedScenariosValidate(t *testing.T) {
	for _, s := range Canned() {
		if err := s.Validate(); err != nil {
			t.Fatalf("canned scenario %q invalid: %v", s.Name, err)
		}
	}
}

func TestValidateRejectsBadEvents(t *testing.T) {
	cases := []struct {
		name string
		scn  Scenario
		want string
	}{
		{"negative time", Scenario{Events: []Event{{At: -1, Kind: Crash, Worker: 0}}}, "negative time"},
		{"negative period", Scenario{Events: []Event{{Period: -2, Kind: Crash, Worker: 0}}}, "negative period"},
		{"sub-millisecond period", Scenario{Events: []Event{{At: 10, Period: 1e-9, Kind: PhaseShift, Worker: -1, CompScale: 1, CommScale: 1}}}, "under 1 ms"},
		{"period that does not move time", Scenario{Events: []Event{{At: 1e20, Period: 1, Kind: Crash, Worker: 0}}}, "does not move time"},
		{"unknown kind", Scenario{Events: []Event{{Kind: "explode", Worker: 0}}}, "unknown kind"},
		{"crash without worker", Scenario{Events: []Event{{Kind: Crash, Worker: -1}}}, "needs a worker"},
		{"partition without worker", Scenario{Events: []Event{{Kind: Partition, Worker: -1}}}, "needs a worker"},
		{"heal without worker", Scenario{Events: []Event{{Kind: Heal, Worker: -1}}}, "needs a worker"},
		{"zero phase scale", Scenario{Events: []Event{{Kind: PhaseShift, Worker: -1}}}, "phase scales"},
		{"huge phase scale", Scenario{Events: []Event{{Kind: PhaseShift, Worker: -1, CompScale: 1e52, CommScale: 1}}}, "phase scales"},
		{"infinite phase scale", Scenario{Events: []Event{{Kind: PhaseShift, Worker: 0, CompScale: 1, CommScale: math.Inf(1)}}}, "phase scales"},
		{"NaN phase scale", Scenario{Events: []Event{{Kind: PhaseShift, Worker: -1, CompScale: math.NaN(), CommScale: 1}}}, "phase scales"},
		{"bad phase worker", Scenario{Events: []Event{{Kind: PhaseShift, Worker: -2, CompScale: 1, CommScale: 1}}}, "bad worker"},
		{"negative initial", Scenario{InitialWorkers: -1}, "InitialWorkers"},
	}
	for _, c := range cases {
		err := c.scn.Validate()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: error %v, want mention of %q", c.name, err, c.want)
		}
	}
}

func TestLookupAndNames(t *testing.T) {
	names := Names()
	if !sort.StringsAreSorted(names) {
		t.Fatalf("names not sorted: %v", names)
	}
	for _, name := range names {
		s, err := Lookup(name)
		if err != nil {
			t.Fatalf("Lookup(%q): %v", name, err)
		}
		if s.Name != name {
			t.Fatalf("Lookup(%q) returned scenario named %q", name, s.Name)
		}
	}
	if _, err := Lookup("bogus"); err == nil || !strings.Contains(err.Error(), "bogus") {
		t.Fatalf("unknown lookup error %v", err)
	}
	if len(Canned()) != len(names) {
		t.Fatalf("Canned returned %d scenarios for %d names", len(Canned()), len(names))
	}
}

func TestLookupResultsAreIndependent(t *testing.T) {
	a, _ := Lookup("flaky")
	b, _ := Lookup("flaky")
	a.Events[0].Worker = 99
	if b.Events[0].Worker == 99 {
		t.Fatal("Lookup results share event storage")
	}
}

func TestElasticStartsSmallAndGrows(t *testing.T) {
	s := Elastic()
	if s.InitialWorkers != 2 {
		t.Fatalf("elastic initial fleet %d", s.InitialWorkers)
	}
	out := map[int]bool{} // ranks currently outside the fleet
	for r := s.InitialWorkers; r < 16; r++ {
		out[r] = true
	}
	joins := 0
	for _, ev := range s.Events {
		switch ev.Kind {
		case Join:
			joins++
			if !out[ev.Worker] {
				t.Fatalf("join at t=%v targets rank %d already in the fleet", ev.At, ev.Worker)
			}
			delete(out, ev.Worker)
		case Leave:
			if out[ev.Worker] {
				t.Fatalf("leave at t=%v targets rank %d already outside the fleet", ev.At, ev.Worker)
			}
			out[ev.Worker] = true
		}
	}
	if joins == 0 {
		t.Fatal("elastic scenario has no joins")
	}
}

func TestCannedScenariosNeverStrandASingleWorkerFleet(t *testing.T) {
	// Every canned scenario must leave even a one-replica fleet (sequential
	// SGD) alive at the end of its timeline: events for ranks ≥ 1 are
	// skipped there, so worker 0's crash/leave events must all be paired
	// with a later recover/join. An unpaired retirement would silently
	// truncate the SGD baseline of every figure run under -scenario.
	for _, s := range Canned() {
		alive := true
		for _, ev := range s.Events {
			if ev.Worker != 0 {
				continue
			}
			switch ev.Kind {
			case Crash, Leave:
				alive = false
			case Recover, Join:
				alive = true
			}
		}
		if !alive {
			t.Fatalf("scenario %q permanently retires worker 0", s.Name)
		}
	}
}

func TestFlakyPairsCrashWithRecovery(t *testing.T) {
	s := Flaky()
	down := map[int]bool{}
	for _, ev := range s.Events {
		switch ev.Kind {
		case Crash:
			down[ev.Worker] = true
		case Recover:
			if !down[ev.Worker] {
				t.Fatalf("recovery of worker %d without prior crash", ev.Worker)
			}
			delete(down, ev.Worker)
		}
	}
	if len(down) != 0 {
		t.Fatalf("workers crash without recovery: %v", down)
	}
}

func TestPartitionedPairsCutsWithHeals(t *testing.T) {
	// Every Partition in the canned partition timeline must have a Heal for
	// the same worker on the same period: a heal-less periodic partition
	// would park the worker permanently after its final heal.
	s := Partitioned()
	heals := map[int][]Event{}
	for _, ev := range s.Events {
		if ev.Kind == Heal {
			heals[ev.Worker] = append(heals[ev.Worker], ev)
		}
	}
	for _, ev := range s.Events {
		if ev.Kind != Partition {
			continue
		}
		paired := false
		for _, h := range heals[ev.Worker] {
			if h.Period == ev.Period && h.At > ev.At {
				paired = true
			}
		}
		if !paired {
			t.Fatalf("partition of worker %d at t=%v has no matching heal", ev.Worker, ev.At)
		}
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestRandomizedDeterministic pins the generator contract: the timeline is a
// pure function of its arguments, so property tests that rebuild a scenario
// from a logged seed replay the exact same churn.
func TestRandomizedDeterministic(t *testing.T) {
	a := Randomized(42, 16, 500, 20)
	b := Randomized(42, 16, 500, 20)
	if a.InitialWorkers != b.InitialWorkers || len(a.Events) != len(b.Events) {
		t.Fatalf("same seed, different shapes: %+v vs %+v", a, b)
	}
	for i := range a.Events {
		if a.Events[i] != b.Events[i] {
			t.Fatalf("same seed, event %d differs: %+v vs %+v", i, a.Events[i], b.Events[i])
		}
	}
	c := Randomized(43, 16, 500, 20)
	same := a.InitialWorkers == c.InitialWorkers && len(a.Events) == len(c.Events)
	if same {
		for i := range a.Events {
			if a.Events[i] != c.Events[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical timelines")
	}
}

// TestRandomizedLiveness sweeps seeds and checks the structural guarantees
// the generator promises: a valid timeline, worker 0 never retired (so the
// budget can always drain), every retirement paired with a later revival,
// and every event inside the horizon.
func TestRandomizedLiveness(t *testing.T) {
	for seed := uint64(0); seed < 200; seed++ {
		s := Randomized(seed, 8, 300, 15)
		if err := s.Validate(); err != nil {
			t.Fatalf("seed %d: invalid: %v", seed, err)
		}
		upAfter := map[int]float64{} // worker -> latest revival time
		for _, ev := range s.Events {
			if ev.Kind == Recover || ev.Kind == Join {
				if ev.At > upAfter[ev.Worker] {
					upAfter[ev.Worker] = ev.At
				}
			}
		}
		for _, ev := range s.Events {
			if ev.At < 0 || ev.At > 2*300 {
				t.Fatalf("seed %d: event far outside horizon: %+v", seed, ev)
			}
			if ev.Kind == Crash || ev.Kind == Leave {
				if ev.Worker == 0 {
					t.Fatalf("seed %d: worker 0 retired: %+v", seed, ev)
				}
				if upAfter[ev.Worker] <= ev.At {
					t.Fatalf("seed %d: retirement without later revival: %+v", seed, ev)
				}
			}
		}
	}
}
