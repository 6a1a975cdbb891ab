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
// Pending events live in a flat array sorted by (time, scheduling
// sequence) while there are at most smallCap of them — every simulator in
// this repository stays in that regime (a completion per busy core, an
// arrival, a controller tick) — and spill into a 4-ary min-heap beyond it.
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

// Handle identifies an event pre-registered on an Engine. The callback is
// fixed at Register time; Reschedule sets (or moves) its firing time and
// Cancel clears it. A handle holds at most one pending firing, which is
// exactly the shape of every recurring event in the simulators (one
// completion per core, one arrival per feeder, ...).
type Handle int32

// unscheduled marks a handle with no pending entry.
const unscheduled = -1

// Small-mode thresholds. With at most smallCap pending events the engine
// keeps them in one flat sorted array: firing pops the front, scheduling
// shift-inserts into a couple of hot cache lines, with no sift chains and
// no position churn. The heap takes over when the array fills; run()
// migrates back once pending drains to smallLow, and the gap between the
// two thresholds keeps workloads that hover near either one from
// thrashing between modes.
const (
	smallCap = 24
	smallLow = 20
)

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
	pos int32 // index into small or heap, or unscheduled
}

// Engine is a discrete-event simulator: a clock plus a time-ordered event
// queue. The zero value is not usable; call NewEngine.
type Engine struct {
	now Time
	seq uint64

	// small holds every pending entry while heap is empty, sorted ascending
	// in (at, seq); the live region is small[smallHead:], the prefix before
	// it dead slots left by fired/removed front entries and reused by front
	// inserts. hs.pos is a position hint into it, exact at write time but
	// staled by shifts; removeSmall validates and falls back to a scan.
	small     []entry
	smallHead int

	// heap is a 4-ary min-heap in (at, seq) holding every pending entry
	// once more than smallCap are pending (small is then empty). Positions
	// are exact.
	heap []entry

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
	return &Engine{small: make([]entry, 0, smallCap)}
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
	ev := entry{at: t, seq: e.seq, h: h}
	if len(e.heap) == 0 {
		if len(e.small)-e.smallHead < smallCap {
			e.placeSmall(ev)
			return
		}
		e.spill()
	}
	e.heap = append(e.heap, ev)
	e.siftUp(len(e.heap) - 1)
}

// RescheduleAfter schedules the handle's event d nanoseconds from now.
func (e *Engine) RescheduleAfter(h Handle, d Time) {
	e.Reschedule(h, e.now+d)
}

// Cancel clears the handle's pending firing, if any. The handle remains
// registered and can be rescheduled.
func (e *Engine) Cancel(h Handle) {
	hs := &e.handles[h]
	if hs.pos == unscheduled {
		return
	}
	var at Time
	if len(e.heap) > 0 {
		at = e.heap[hs.pos].at
		e.removeAt(int(hs.pos))
	} else {
		at = e.removeSmall(h, int(hs.pos))
	}
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
	if len(e.heap) > 0 {
		return len(e.heap)
	}
	return len(e.small) - e.smallHead
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

// RunUntil executes events with timestamps <= t, then advances the clock to
// t if it has not passed it already.
func (e *Engine) RunUntil(t Time) {
	e.run(t)
	if e.now < t {
		e.now = t
	}
}

// RunUntilOrDrain executes events until the queue drains or the clock
// reaches the deadline t, whichever comes first. A run that drains below
// the deadline keeps Run's end-of-run clock — the deadline is a pure
// safety bound that never perturbs a terminating simulation's results —
// while a run cut off at t matches RunUntil. t <= 0 means no deadline.
func (e *Engine) RunUntilOrDrain(t Time) {
	if t <= 0 {
		e.Run()
		return
	}
	if !e.RunEventsUntil(t) && e.now < t {
		e.now = t
	}
}

// RunEventsUntil executes events with timestamps <= t without advancing
// the clock past the last fired event, and reports whether the queue
// drained. A drained engine takes Run's end-of-run clock (the phantom
// drain semantics). Unlike RunUntil, a barrier time that fires no events
// leaves no trace on the clock, so segmenting a run at barriers
// t_1 < t_2 < ... observes exactly the per-event clocks of a single
// Run() — the epoch-capped fleet depends on that for byte-identity with
// unsegmented runs.
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

// run fires every event with timestamp <= limit, migrating back to small
// mode once the heap drains to smallLow.
func (e *Engine) run(limit Time) {
	for {
		if n := len(e.heap); n > 0 {
			if n <= smallLow {
				e.unspill()
				continue
			}
			if e.heap[0].at > limit {
				return
			}
		} else if e.smallHead == len(e.small) || e.small[e.smallHead].at > limit {
			return
		}
		e.fireNext()
	}
}

// fireNext pops and runs the earliest pending entry, advancing the clock to
// its timestamp. The queue must be non-empty.
func (e *Engine) fireNext() {
	var ev entry
	if len(e.heap) > 0 {
		ev = e.heap[0]
		e.removeAt(0)
	} else {
		ev = e.small[e.smallHead]
		e.smallHead++
		if e.smallHead == len(e.small) {
			e.small = e.small[:0]
			e.smallHead = 0
		}
	}
	e.now = ev.at
	hs := &e.handles[ev.h]
	hs.pos = unscheduled
	hs.fn()
}

// placeSmall shift-inserts into the sorted small-mode array: a scan from
// the back (periodic events usually sort last) and a short hot memmove. An
// entry sorting before every live one reuses a dead front slot, the shape
// clamped-to-now schedules have.
func (e *Engine) placeSmall(ev entry) {
	n := len(e.small)
	head := e.smallHead
	if n == cap(e.small) && head > 0 {
		// Compact the dead prefix instead of growing the array.
		copy(e.small, e.small[head:])
		n -= head
		e.small = e.small[:n]
		e.smallHead, head = 0, 0
	}
	i := n
	for i > head && entryLess(ev, e.small[i-1]) {
		i--
	}
	switch {
	case i == n:
		e.small = append(e.small, ev)
	case i == head && head > 0:
		i--
		e.smallHead = i
		e.small[i] = ev
	default:
		e.small = append(e.small, entry{})
		copy(e.small[i+1:], e.small[i:n])
		e.small[i] = ev
	}
	e.handles[ev.h].pos = int32(i)
}

// removeSmall deletes the handle's entry from the small-mode array, given
// its position hint, and returns the entry's firing time.
func (e *Engine) removeSmall(h Handle, i int) Time {
	head := e.smallHead
	n := len(e.small)
	if i < head || i >= n || e.small[i].h != h {
		// Stale hint (a shift moved the entry); scan the live region.
		for i = head; e.small[i].h != h; i++ {
		}
	}
	at := e.small[i].at
	if i == head {
		e.smallHead++
		if e.smallHead == n {
			e.small = e.small[:0]
			e.smallHead = 0
		}
	} else {
		copy(e.small[i:], e.small[i+1:])
		e.small = e.small[:n-1]
	}
	return at
}

// spill moves the small-mode array into the heap. A sorted array already
// satisfies the heap property, so only positions need rewriting.
func (e *Engine) spill() {
	e.heap = append(e.heap[:0], e.small[e.smallHead:]...)
	for i, ev := range e.heap {
		e.handles[ev.h].pos = int32(i)
	}
	e.small = e.small[:0]
	e.smallHead = 0
}

// unspill moves the heap back into the small-mode array, insertion-sorting
// it into (at, seq) order and rewriting exact positions.
func (e *Engine) unspill() {
	ents := append(e.small[:0], e.heap...)
	e.heap = e.heap[:0]
	for i := 1; i < len(ents); i++ {
		ev := ents[i]
		j := i
		for ; j > 0 && entryLess(ev, ents[j-1]); j-- {
			ents[j] = ents[j-1]
		}
		ents[j] = ev
	}
	for i, ev := range ents {
		e.handles[ev.h].pos = int32(i)
	}
	e.small = ents
}

// removeAt deletes the heap entry at index i, restoring the heap property
// around the hole. The caller marks the removed handle unscheduled.
func (e *Engine) removeAt(i int) {
	n := len(e.heap) - 1
	last := e.heap[n]
	e.heap = e.heap[:n]
	if i < n {
		e.heap[i] = last
		e.siftDown(e.siftUp(i))
	}
}

// siftUp moves the entry at index i toward the root until its parent is no
// larger, maintaining handle positions. It returns the final index.
func (e *Engine) siftUp(i int) int {
	ev := e.heap[i]
	for i > 0 {
		p := (i - 1) / 4
		if !entryLess(ev, e.heap[p]) {
			break
		}
		e.heap[i] = e.heap[p]
		e.handles[e.heap[i].h].pos = int32(i)
		i = p
	}
	e.heap[i] = ev
	e.handles[ev.h].pos = int32(i)
	return i
}

// siftDown moves the entry at index i toward the leaves until no child is
// smaller, maintaining handle positions.
func (e *Engine) siftDown(i int) {
	n := len(e.heap)
	ev := e.heap[i]
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		best := first
		for c := first + 1; c < min(first+4, n); c++ {
			if entryLess(e.heap[c], e.heap[best]) {
				best = c
			}
		}
		if !entryLess(e.heap[best], ev) {
			break
		}
		e.heap[i] = e.heap[best]
		e.handles[e.heap[i].h].pos = int32(i)
		i = best
	}
	e.heap[i] = ev
	e.handles[ev.h].pos = int32(i)
}
