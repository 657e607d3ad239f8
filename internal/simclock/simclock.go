// Package simclock is a minimal discrete-event simulator: a virtual clock
// and a priority queue of timestamped events with deterministic tie-breaking
// by insertion sequence. The cluster fabric schedules worker compute and
// communication completions on it, so gradient staleness and the wall-clock
// axes of the paper's Figures 4 and 6 emerge from event interleaving in
// virtual time rather than from real hardware.
package simclock

// Event is a callback scheduled at a virtual time.
type Event struct {
	At  float64
	Run func()
	seq uint64
}

// Clock owns the virtual time and the pending event queue. The queue is a
// hand-rolled binary min-heap of Event values (not pointers): ScheduleAt
// appends into the slice's spare capacity, so steady-state scheduling —
// where the queue length oscillates around a high-water mark — allocates
// nothing. (At, seq) is a strict total order, so the heap's internal
// arrangement can never influence pop order, only the cost of maintaining
// it: O(log n) per operation.
type Clock struct {
	now       float64
	queue     []Event
	nextSeq   uint64
	processed uint64
}

// New returns a clock at time 0 with no events.
func New() *Clock { return &Clock{} }

// Now returns the current virtual time.
func (c *Clock) Now() float64 { return c.now }

// RestoreNow sets the clock to a checkpointed virtual time. It is the
// resume path's first move — events re-armed afterwards carry absolute
// times at or after t — and is only meaningful on a clock that has not
// scheduled anything yet; restoring under pending events would reorder
// causality, so it panics.
func (c *Clock) RestoreNow(t float64) {
	if len(c.queue) > 0 {
		panic("simclock: RestoreNow with pending events")
	}
	if t < c.now {
		panic("simclock: RestoreNow into the past")
	}
	c.now = t
}

// Processed returns the number of events run so far.
func (c *Clock) Processed() uint64 { return c.processed }

// Pending returns the number of queued events.
func (c *Clock) Pending() int { return len(c.queue) }

// less orders events by time, breaking ties FIFO by insertion sequence.
func (c *Clock) less(i, j int) bool {
	if c.queue[i].At != c.queue[j].At {
		return c.queue[i].At < c.queue[j].At
	}
	return c.queue[i].seq < c.queue[j].seq
}

// siftUp restores the heap property after appending at index i.
func (c *Clock) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !c.less(i, parent) {
			return
		}
		c.queue[i], c.queue[parent] = c.queue[parent], c.queue[i]
		i = parent
	}
}

// siftDown restores the heap property after replacing the root.
func (c *Clock) siftDown(i int) {
	n := len(c.queue)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		min := l
		if r := l + 1; r < n && c.less(r, l) {
			min = r
		}
		if !c.less(min, i) {
			return
		}
		c.queue[i], c.queue[min] = c.queue[min], c.queue[i]
		i = min
	}
}

// ScheduleAt enqueues run at absolute virtual time at. Scheduling in the
// past panics: it would silently reorder causality.
func (c *Clock) ScheduleAt(at float64, run func()) {
	if at < c.now {
		panic("simclock: scheduling event in the past")
	}
	c.queue = append(c.queue, Event{At: at, Run: run, seq: c.nextSeq})
	c.nextSeq++
	c.siftUp(len(c.queue) - 1)
}

// ScheduleAfter enqueues run delay time units from now.
func (c *Clock) ScheduleAfter(delay float64, run func()) {
	if delay < 0 {
		panic("simclock: negative delay")
	}
	c.ScheduleAt(c.now+delay, run)
}

// Step runs the earliest event, advancing the clock to its timestamp. It
// returns false when the queue is empty.
func (c *Clock) Step() bool {
	if len(c.queue) == 0 {
		return false
	}
	e := c.queue[0]
	n := len(c.queue) - 1
	c.queue[0] = c.queue[n]
	c.queue[n] = Event{} // release the closure; the slot stays as capacity
	c.queue = c.queue[:n]
	if n > 1 {
		c.siftDown(0)
	}
	c.now = e.At
	c.processed++
	e.Run()
	return true
}

// Run processes events until the queue is empty or stop returns true
// (checked after each event).
func (c *Clock) Run(stop func() bool) {
	for c.Step() {
		if stop != nil && stop() {
			return
		}
	}
}
