// Package sim provides a deterministic discrete-event simulation engine.
//
// The Rubik reproduction replaces the paper's cycle-accurate zsim substrate
// with request-level discrete-event simulation; this package supplies the
// clock and event queue every simulated server is built on. Time is int64
// nanoseconds. Events at equal timestamps fire in scheduling order, which
// makes every simulation reproducible given the same inputs.
//
// The engine is built for zero allocations per event in steady state.
// Recurring events are pre-registered once with Register and then moved
// with Reschedule / Cancel, which relocate the single pending entry in
// place instead of pushing a fresh closure and tombstoning the stale one.
// Pending events live in one flat array sorted by (time, scheduling
// sequence). A socket holds at most a few dozen of them (an arrival, a
// completion, tick and DVFS switch per core, a cap event), where firing
// pops the front and scheduling shift-inserts into a couple of hot cache
// lines.
package sim

import "math"

// Time is a point in simulated time, in nanoseconds.
type Time = int64

// Convenient durations in simulated nanoseconds.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000
	Millisecond Time = 1000 * 1000
	Second      Time = 1000 * 1000 * 1000
)

// SpanNs truncates a non-negative span in nanoseconds to a Time,
// saturating at the largest representable time (NaN too) instead of
// wrapping into the past.
func SpanNs(ns float64) Time {
	if !(ns < math.MaxInt64) {
		return math.MaxInt64
	}
	return Time(ns)
}

// AddSpan returns t+d for non-negative t, saturating like SpanNs, so a
// huge delay never wraps into the past.
func AddSpan(t, d Time) Time {
	if d > math.MaxInt64-t {
		return math.MaxInt64
	}
	return t + d
}

// Handle identifies an event pre-registered on an Engine. The callback is
// fixed at Register time; Reschedule sets (or moves) its firing time and
// Cancel clears it. A handle holds at most one pending firing, which is
// exactly the shape of every recurring event in the simulators (one
// completion per core, one arrival per feeder, ...).
type Handle int32

// unscheduled marks a handle with no pending entry.
const unscheduled = -1

// initCap is the pending array's initial capacity. A 6-core socket holds
// at most 3·6+2 = 20 pending events, so no simulator grows it; a larger
// queue grows by append.
const initCap = 24

// entry is one scheduled event, stored by value: scheduling never boxes and
// never allocates beyond amortized slice growth.
type entry struct {
	at  Time
	seq uint64
	h   Handle
}

// entryLess is the engine's total firing order: (time, scheduling
// sequence). seq is unique, so the queue layout cannot affect firing order.
func entryLess(a, b entry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

type handleState struct {
	fn  func()
	pos int32 // position hint into queue, or unscheduled
}

// Engine is a discrete-event simulator: a clock plus a time-ordered event
// queue. The zero value is not usable; call NewEngine.
type Engine struct {
	now Time
	seq uint64

	// queue holds every pending entry sorted ascending in (at, seq); the
	// live region is queue[head:], the prefix before it dead slots left by
	// fired/removed front entries and reused by front inserts. hs.pos is a
	// position hint into it, exact at write time but staled by shifts;
	// remove validates and falls back to a scan.
	queue []entry
	head  int

	handles []handleState

	// phantom is the latest firing time displaced by Reschedule/Cancel. The
	// pre-handle engine left superseded events in its queue as no-op
	// tombstones, so a full drain advanced the clock to the latest time
	// ever scheduled, canceled or not; simulations observe that clock as
	// Result.EndTime. Run reproduces it without keeping tombstones around.
	phantom Time
}

// NewEngine returns an engine with the clock at 0 and no pending events.
func NewEngine() *Engine {
	return &Engine{queue: make([]entry, 0, initCap)}
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Register reserves a handle firing fn. The event is initially unscheduled;
// arm it with Reschedule. Handles stay valid for the engine's lifetime.
func (e *Engine) Register(fn func()) Handle {
	e.handles = append(e.handles, handleState{fn: fn, pos: unscheduled})
	return Handle(len(e.handles) - 1)
}

// Reschedule schedules the handle's event at simulated time t, moving the
// pending firing if one exists. Scheduling in the past (t < Now) clamps to
// Now, i.e. the event fires next. A reschedule counts as a fresh scheduling
// for tie-breaking: among equal timestamps it fires after events already
// scheduled there, exactly as if it had been pushed anew.
func (e *Engine) Reschedule(h Handle, t Time) {
	if t < e.now {
		t = e.now
	}
	e.seq++
	if e.handles[h].pos != unscheduled {
		e.Cancel(h)
	}
	e.place(entry{at: t, seq: e.seq, h: h})
}

// RescheduleAfter schedules the handle's event d nanoseconds from now,
// saturating at the largest representable time (AddSpan).
func (e *Engine) RescheduleAfter(h Handle, d Time) {
	e.Reschedule(h, AddSpan(e.now, d))
}

// Cancel clears the handle's pending firing, if any. The handle remains
// registered and can be rescheduled.
func (e *Engine) Cancel(h Handle) {
	hs := &e.handles[h]
	if hs.pos == unscheduled {
		return
	}
	at := e.remove(h, int(hs.pos))
	hs.pos = unscheduled
	if at > e.phantom {
		e.phantom = at
	}
}

// Scheduled reports whether the handle has a pending firing.
func (e *Engine) Scheduled(h Handle) bool {
	return e.handles[h].pos != unscheduled
}

// Pending returns the number of scheduled events.
func (e *Engine) Pending() int {
	return len(e.queue) - e.head
}

// Step runs the next event, advancing the clock to its timestamp. It
// returns false when no events remain.
func (e *Engine) Step() bool {
	if e.Pending() == 0 {
		return false
	}
	e.fireNext()
	return true
}

// Run executes events until the queue is empty. The final clock is the
// latest time ever scheduled, including firings later displaced by
// Reschedule/Cancel (see the phantom field) — the drain semantics the
// tombstone-based engine had.
func (e *Engine) Run() {
	e.run(math.MaxInt64)
	e.drained()
}

// RunEventsUntil executes events with timestamps <= t without advancing
// the clock past the last fired event, and reports whether the queue
// drained. A drained engine takes Run's end-of-run clock (the phantom
// drain semantics). A barrier time that fires no events leaves no trace
// on the clock, so segmenting a run at barriers t_1 < t_2 < ... observes
// exactly the per-event clocks of a single Run() — the epoch-capped fleet
// depends on that for byte-identity with unsegmented runs.
func (e *Engine) RunEventsUntil(t Time) bool {
	e.run(t)
	if e.Pending() > 0 {
		return false
	}
	e.drained()
	return true
}

// drained moves the clock of an empty queue to the latest displaced firing.
func (e *Engine) drained() {
	if e.now < e.phantom {
		e.now = e.phantom
	}
}

// run fires every event with timestamp <= limit.
func (e *Engine) run(limit Time) {
	for e.head < len(e.queue) && e.queue[e.head].at <= limit {
		e.fireNext()
	}
}

// fireNext pops and runs the earliest pending entry, advancing the clock to
// its timestamp. The queue must be non-empty.
func (e *Engine) fireNext() {
	ev := e.queue[e.head]
	e.head++
	if e.head == len(e.queue) {
		e.queue = e.queue[:0]
		e.head = 0
	}
	e.now = ev.at
	hs := &e.handles[ev.h]
	hs.pos = unscheduled
	hs.fn()
}

// place shift-inserts into the sorted array: a scan from the back
// (periodic events usually sort last) and a short hot memmove. An entry
// sorting before every live one reuses a dead front slot, the shape
// clamped-to-now schedules have. A full array compacts its dead prefix
// before it grows.
func (e *Engine) place(ev entry) {
	n := len(e.queue)
	head := e.head
	if n == cap(e.queue) && head > 0 {
		copy(e.queue, e.queue[head:])
		n -= head
		e.queue = e.queue[:n]
		e.head, head = 0, 0
	}
	i := n
	for i > head && entryLess(ev, e.queue[i-1]) {
		i--
	}
	switch {
	case i == n:
		e.queue = append(e.queue, ev)
	case i == head && head > 0:
		i--
		e.head = i
		e.queue[i] = ev
	default:
		e.queue = append(e.queue, entry{})
		copy(e.queue[i+1:], e.queue[i:n])
		e.queue[i] = ev
	}
	e.handles[ev.h].pos = int32(i)
}

// remove deletes the handle's entry from the array, given its position
// hint, and returns the entry's firing time.
func (e *Engine) remove(h Handle, i int) Time {
	head := e.head
	n := len(e.queue)
	if i < head || i >= n || e.queue[i].h != h {
		// Stale hint (a shift moved the entry); scan the live region.
		for i = head; e.queue[i].h != h; i++ {
		}
	}
	at := e.queue[i].at
	if i == head {
		e.head++
		if e.head == n {
			e.queue = e.queue[:0]
			e.head = 0
		}
	} else {
		copy(e.queue[i:], e.queue[i+1:])
		e.queue = e.queue[:n-1]
	}
	return at
}
