// Package vclock provides a deterministic virtual clock and timer queue for
// discrete-event simulation. All time in the simulated NT system is virtual:
// the clock only advances when the simulation explicitly advances it, so an
// entire fault-injection campaign that spans hours of simulated time runs in
// milliseconds of wall time and is exactly reproducible.
package vclock

import (
	"container/heap"
	"fmt"
	"time"
)

// Time is an instant of virtual time, measured as a duration since the
// simulation epoch. The zero Time is the epoch itself.
type Time time.Duration

// String formats the virtual time as a duration since the epoch.
func (t Time) String() string { return time.Duration(t).String() }

// Seconds reports the virtual time as floating-point seconds since the epoch.
func (t Time) Seconds() float64 { return time.Duration(t).Seconds() }

// Add returns the time d after t.
func (t Time) Add(d time.Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) time.Duration { return time.Duration(t - u) }

// Before reports whether t is strictly earlier than u.
func (t Time) Before(u Time) bool { return t < u }

// After reports whether t is strictly later than u.
func (t Time) After(u Time) bool { return t > u }

// event is a scheduled callback in the timer queue.
type event struct {
	when Time
	seq  uint64 // tie-breaker: FIFO among events at the same instant
	fn   func()
	id   EventID
}

// EventID identifies a scheduled event so it can be cancelled.
type EventID uint64

// eventHeap orders events by (when, seq).
type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }

func (h eventHeap) Less(i, j int) bool {
	if h[i].when != h[j].when {
		return h[i].when < h[j].when
	}
	return h[i].seq < h[j].seq
}

func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

func (h *eventHeap) Push(x any) { *h = append(*h, x.(*event)) }

func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// Clock is a virtual clock with an ordered queue of future events.
// Clock is not safe for concurrent use; the simulation kernel serializes
// access (exactly one simulated process runs at a time).
type Clock struct {
	now       Time
	queue     eventHeap
	seq       uint64
	nextID    EventID
	cancelled map[EventID]bool

	// free recycles fired event structs. A fault-injection run schedules
	// tens of thousands of timer events (sleeps, timeouts, SCM ticks);
	// recycling them keeps the per-event cost allocation-free after the
	// first few. EventIDs stay monotone — only the structs are reused —
	// so Cancel never aliases a recycled event.
	free []*event
}

// New returns a Clock positioned at the simulation epoch.
func New() *Clock {
	return &Clock{cancelled: make(map[EventID]bool)}
}

// recycle clears an event's callback and returns the struct to the freelist.
func (c *Clock) recycle(e *event) {
	e.fn = nil
	c.free = append(c.free, e)
}

// newEvent takes an event struct from the freelist, or allocates one.
func (c *Clock) newEvent() *event {
	if n := len(c.free); n > 0 {
		e := c.free[n-1]
		c.free[n-1] = nil
		c.free = c.free[:n-1]
		return e
	}
	return &event{}
}

// Now returns the current virtual time.
func (c *Clock) Now() Time { return c.now }

// Counters returns the clock's sequence and event-ID counters. Together
// with Now they fully describe an event-free clock, so a prefix snapshot
// can be restored onto a fresh clock with RestoreCounters.
func (c *Clock) Counters() (seq uint64, nextID EventID) { return c.seq, c.nextID }

// RestoreCounters positions an empty clock at a snapshot's time and
// counters so that subsequent scheduling resumes with identical ordering
// and IDs. It panics if events are still queued.
func (c *Clock) RestoreCounters(now Time, seq uint64, nextID EventID) {
	if len(c.queue) != 0 {
		panic("vclock: RestoreCounters on a clock with queued events")
	}
	c.now, c.seq, c.nextID = now, seq, nextID
}

// Advance moves the clock forward by d without running any events.
// It is used by the kernel to charge virtual-time costs to the running
// process. Advancing never goes backwards; a negative d is ignored.
func (c *Clock) Advance(d time.Duration) {
	if d > 0 {
		c.now += Time(d)
	}
}

// ScheduleAt registers fn to run when the clock reaches t. If t is in the
// past, the event fires on the next RunNext call. The returned EventID can
// be passed to Cancel.
func (c *Clock) ScheduleAt(t Time, fn func()) EventID {
	if fn == nil {
		panic("vclock: ScheduleAt with nil fn")
	}
	c.seq++
	c.nextID++
	e := c.newEvent()
	e.when, e.seq, e.fn, e.id = t, c.seq, fn, c.nextID
	heap.Push(&c.queue, e)
	return e.id
}

// ScheduleAfter registers fn to run d after the current virtual time.
func (c *Clock) ScheduleAfter(d time.Duration, fn func()) EventID {
	return c.ScheduleAt(c.now.Add(d), fn)
}

// Cancel removes a scheduled event. Cancelling an already-fired or unknown
// event is a no-op.
func (c *Clock) Cancel(id EventID) {
	c.cancelled[id] = true
}

// Pending reports how many live (non-cancelled) events remain queued.
func (c *Clock) Pending() int {
	n := 0
	for _, e := range c.queue {
		if !c.cancelled[e.id] {
			n++
		}
	}
	return n
}

// NextAt returns the virtual time of the next live event, and false if the
// queue is empty.
func (c *Clock) NextAt() (Time, bool) {
	c.drainCancelled()
	if len(c.queue) == 0 {
		return 0, false
	}
	return c.queue[0].when, true
}

// RunNext pops the earliest live event, advances the clock to its deadline
// (never backwards), and runs it. It reports false if no live events remain.
func (c *Clock) RunNext() bool {
	c.drainCancelled()
	if len(c.queue) == 0 {
		return false
	}
	e := heap.Pop(&c.queue).(*event)
	if e.when > c.now {
		c.now = e.when
	}
	fn := e.fn
	c.recycle(e)
	fn()
	return true
}

// RunUntil runs queued events in order until the next event would fire after
// deadline, then advances the clock to exactly deadline. It returns the
// number of events run.
func (c *Clock) RunUntil(deadline Time) int {
	n := 0
	for {
		t, ok := c.NextAt()
		if !ok || t.After(deadline) {
			break
		}
		c.RunNext()
		n++
	}
	if deadline.After(c.now) {
		c.now = deadline
	}
	return n
}

// drainCancelled discards cancelled events from the head of the queue.
func (c *Clock) drainCancelled() {
	for len(c.queue) > 0 && c.cancelled[c.queue[0].id] {
		e := heap.Pop(&c.queue).(*event)
		delete(c.cancelled, e.id)
		c.recycle(e)
	}
}

// GoString aids debugging.
func (c *Clock) GoString() string {
	return fmt.Sprintf("vclock.Clock{now: %s, pending: %d}", c.now, c.Pending())
}
