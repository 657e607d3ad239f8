package simclock

import (
	"testing"
	"testing/quick"

	"lcasgd/internal/rng"
)

func TestEventsRunInTimeOrder(t *testing.T) {
	c := New()
	var order []int
	c.ScheduleAt(3, func() { order = append(order, 3) })
	c.ScheduleAt(1, func() { order = append(order, 1) })
	c.ScheduleAt(2, func() { order = append(order, 2) })
	c.Run(nil)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order %v", order)
	}
	if c.Now() != 3 {
		t.Fatalf("clock at %v", c.Now())
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	c := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		c.ScheduleAt(5, func() { order = append(order, i) })
	}
	c.Run(nil)
	for i, v := range order {
		if v != i {
			t.Fatalf("ties not FIFO: %v", order)
		}
	}
}

func TestScheduleAfterRelative(t *testing.T) {
	c := New()
	var at float64
	c.ScheduleAt(10, func() {
		c.ScheduleAfter(5, func() { at = c.Now() })
	})
	c.Run(nil)
	if at != 15 {
		t.Fatalf("nested ScheduleAfter fired at %v", at)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	c := New()
	c.ScheduleAt(10, func() {})
	c.Step()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.ScheduleAt(5, func() {})
}

func TestNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New().ScheduleAfter(-1, func() {})
}

func TestRunWithStopPredicate(t *testing.T) {
	c := New()
	count := 0
	for i := 1; i <= 100; i++ {
		c.ScheduleAt(float64(i), func() { count++ })
	}
	c.Run(func() bool { return count >= 10 })
	if count != 10 {
		t.Fatalf("stop predicate ignored: %d", count)
	}
}

func TestStepOnEmptyQueue(t *testing.T) {
	c := New()
	if c.Step() {
		t.Fatal("Step on empty queue must return false")
	}
}

func TestProcessedCounter(t *testing.T) {
	c := New()
	for i := 0; i < 7; i++ {
		c.ScheduleAfter(float64(i), func() {})
	}
	c.Run(nil)
	if c.Processed() != 7 {
		t.Fatalf("processed %d", c.Processed())
	}
}

// TestClockMonotonicQuick: however events are scheduled, observed event
// times are non-decreasing.
func TestClockMonotonicQuick(t *testing.T) {
	f := func(seed uint64) bool {
		g := rng.New(seed)
		c := New()
		var times []float64
		var schedule func(depth int)
		schedule = func(depth int) {
			n := g.Intn(4) + 1
			for i := 0; i < n; i++ {
				d := g.Float64() * 10
				c.ScheduleAfter(d, func() {
					times = append(times, c.Now())
					if depth < 3 && g.Float64() < 0.5 {
						schedule(depth + 1)
					}
				})
			}
		}
		schedule(0)
		c.Run(nil)
		for i := 1; i < len(times); i++ {
			if times[i] < times[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestHeapOrderTiesStress hammers the hand-rolled value heap with a
// tie-heavy batch: pops must come out in (At, insertion order) exactly.
func TestHeapOrderTiesStress(t *testing.T) {
	g := rng.New(99)
	c := New()
	type rec struct {
		at float64
		id int
	}
	var got []rec
	for i := 0; i < 1000; i++ {
		i := i
		at := float64(g.Intn(50))
		c.ScheduleAt(at, func() { got = append(got, rec{c.Now(), i}) })
	}
	c.Run(nil)
	if len(got) != 1000 {
		t.Fatalf("ran %d events, want 1000", len(got))
	}
	for k := 1; k < len(got); k++ {
		if got[k].at < got[k-1].at ||
			(got[k].at == got[k-1].at && got[k].id < got[k-1].id) {
			t.Fatalf("event %d (at=%v id=%d) after (at=%v id=%d)",
				k, got[k].at, got[k].id, got[k-1].at, got[k-1].id)
		}
	}
}

// TestSteadyStateSchedulingAllocs guards the value heap's zero-alloc
// contract: once the queue has grown to its high-water capacity, a
// schedule/step cycle must not allocate — pushes reuse the slice's spare
// capacity and pops only shrink it.
func TestSteadyStateSchedulingAllocs(t *testing.T) {
	c := New()
	run := func() {}
	for i := 0; i < 64; i++ {
		c.ScheduleAfter(float64(i), run)
	}
	for i := 0; i < 32; i++ {
		c.Step()
	}
	allocs := testing.AllocsPerRun(200, func() {
		c.ScheduleAfter(1000, run)
		c.Step()
	})
	if allocs != 0 {
		t.Fatalf("steady-state schedule/step allocates %v per cycle, want 0", allocs)
	}
}
