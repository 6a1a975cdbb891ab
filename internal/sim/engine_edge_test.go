package sim

import (
	"math"
	"testing"
)

// Edge regression tests for the engine. Each case pins a behavior of the
// event contract: handle reuse across Cancel/Reschedule, scheduling at the
// current instant, far-future deltas, and queues that grow past the
// pending array's initial capacity.

// Cancel-then-Reschedule on the same handle must behave as if the cancel
// never left a residue: the handle fires once, at the new deadline.
func TestEngineCancelThenReschedule(t *testing.T) {
	e := NewEngine()
	var fired []Time
	h := e.Register(func() { fired = append(fired, e.Now()) })

	e.Reschedule(h, 100)
	e.Cancel(h)
	e.Reschedule(h, 250)
	e.Run()

	if len(fired) != 1 || fired[0] != 250 {
		t.Fatalf("fired = %v, want [250]", fired)
	}
	if e.Scheduled(h) {
		t.Fatalf("handle still scheduled after firing")
	}

	// Cancel/Reschedule churn while other events interleave; the handle
	// must track only its latest deadline.
	var log []int
	a := e.Register(func() { log = append(log, 1) })
	b := e.Register(func() { log = append(log, 2) })
	e.Reschedule(a, e.Now()+10)
	e.Reschedule(b, e.Now()+20)
	e.Cancel(a)
	e.Reschedule(a, e.Now()+30)
	e.Cancel(a)
	e.Reschedule(a, e.Now()+5)
	e.Run()
	if want := []int{1, 2}; len(log) != 2 || log[0] != want[0] || log[1] != want[1] {
		t.Fatalf("log = %v, want %v", log, want)
	}
}

// Scheduling at exactly Now() must fire on the next step without
// advancing the clock.
func TestEngineScheduleAtNow(t *testing.T) {
	e := NewEngine()
	oneShot(e, 1000, func() {})
	e.Run()
	if e.Now() != 1000 {
		t.Fatalf("Now = %d, want 1000", e.Now())
	}

	var at Time
	h := e.Register(func() { at = e.Now() })
	e.Reschedule(h, e.Now())
	if !e.Step() {
		t.Fatalf("Step found no event")
	}
	if at != 1000 || e.Now() != 1000 {
		t.Fatalf("fired at %d (clock %d), want 1000", at, e.Now())
	}

	// Same via a fresh one-shot handle, with enough pending handles to grow
	// the array past its initial capacity.
	var hs []Handle
	for i := 0; i < 2*initCap; i++ {
		h := e.Register(func() {})
		e.Reschedule(h, e.Now()+Time(10000+i*1000))
		hs = append(hs, h)
	}
	fired := false
	oneShot(e, e.Now(), func() { fired = true })
	if !e.Step() || !fired || e.Now() != 1000 {
		t.Fatalf("at-Now one-shot: fired=%v clock=%d, want true/1000", fired, e.Now())
	}
	for _, h := range hs {
		e.Cancel(h)
	}
}

// pin registers n no-op handles scheduled at base+1, base+2, ...: enough
// of them (n > initCap) grow the pending array past its initial capacity.
func pin(e *Engine, n int, base Time) []Handle {
	hs := make([]Handle, n)
	for i := range hs {
		hs[i] = e.Register(func() {})
		e.Reschedule(hs[i], base+Time(i+1))
	}
	return hs
}

// Far-future deltas, up to 1e18 ns, must fire at their exact deadline from
// a grown queue.
func TestEngineFarFutureCascade(t *testing.T) {
	for _, d := range []Time{1e3, 1e6, 1e9, 1e12, 1e15, 1e18, 262144, 262143} {
		e := NewEngine()
		var at Time
		h := e.Register(func() { at = e.Now() })
		e.Reschedule(h, d)
		pin(e, 2*initCap, 2*d)
		e.RunEventsUntil(d)
		if at != d {
			t.Fatalf("delta %d: fired at %d, want %d", d, at, d)
		}
	}
}

// A delay that would carry the clock past the largest representable time
// saturates there, after every finite deadline, instead of wrapping into
// the past and firing at once.
func TestEngineRescheduleAfterSaturates(t *testing.T) {
	for _, d := range []Time{math.MaxInt64 - 1000, math.MaxInt64 - 1, math.MaxInt64} {
		e := NewEngine()
		var log []Time
		warm := e.Register(func() {})
		e.Reschedule(warm, 1000)
		e.Run()
		far := e.Register(func() { log = append(log, e.Now()) })
		near := e.Register(func() { log = append(log, -e.Now()) })
		e.RescheduleAfter(far, d)
		e.RescheduleAfter(near, 1<<62)
		e.Run()
		want := []Time{-(1000 + 1<<62), math.MaxInt64}
		if len(log) != 2 || log[0] != want[0] || log[1] != want[1] {
			t.Fatalf("delay %d at t=1000: fired %v, want %v (near event negated)", d, log, want)
		}
	}
}

// SpanNs truncates a span to whole nanoseconds and AddSpan adds one,
// both saturating at the largest representable time.
func TestSpanSaturates(t *testing.T) {
	spans := []struct {
		ns   float64
		want Time
	}{
		{0, 0}, {1.9, 1}, {1 << 62, 1 << 62}, {0x1p63 - 1024, math.MaxInt64 - 1023},
		{0x1p63, math.MaxInt64}, {1e300, math.MaxInt64}, {math.Inf(1), math.MaxInt64}, {math.NaN(), math.MaxInt64},
	}
	for _, c := range spans {
		if got := SpanNs(c.ns); got != c.want {
			t.Errorf("SpanNs(%v) = %d, want %d", c.ns, got, c.want)
		}
	}
	sums := []struct{ t, d, want Time }{
		{0, 0, 0}, {5, 7, 12}, {1 << 62, 1 << 62, math.MaxInt64}, {1, math.MaxInt64 - 1, math.MaxInt64},
		{1, math.MaxInt64, math.MaxInt64}, {math.MaxInt64, 0, math.MaxInt64}, {math.MaxInt64, 1, math.MaxInt64},
	}
	for _, c := range sums {
		if got := AddSpan(c.t, c.d); got != c.want {
			t.Errorf("AddSpan(%d, %d) = %d, want %d", c.t, c.d, got, c.want)
		}
	}
}

// Two events with the same deadline — A placed before the queue grew past
// its initial capacity, B placed after it drained back below — must fire
// in scheduling (seq) order.
func TestEngineTieOrderAcrossGrowth(t *testing.T) {
	e := NewEngine()
	var log []int
	a := e.Register(func() { log = append(log, 1) })
	b := e.Register(func() { log = append(log, 2) })

	const deadline = Time(5_000_000)
	e.Reschedule(a, deadline)
	pin(e, 2*initCap, deadline/2)
	e.RunEventsUntil(deadline - 10) // the pins fire; only A stays pending
	e.Reschedule(b, deadline)
	e.RunEventsUntil(deadline)

	if len(log) != 2 || log[0] != 1 || log[1] != 2 {
		t.Fatalf("tie order = %v, want [1 2] (seq order)", log)
	}
}

// Reschedules and cancels must relocate or drop an entry in a queue that
// grew past its initial capacity without leaving stale residues behind.
func TestEngineRescheduleAcrossGrowth(t *testing.T) {
	e := NewEngine()
	var fired []Time
	h := e.Register(func() { fired = append(fired, e.Now()) })
	e.Reschedule(h, 1e9)
	pins := pin(e, 2*initCap, 1e12)
	e.Reschedule(h, 100) // moved to the front of the grown queue
	e.RunEventsUntil(200)
	if len(fired) != 1 || fired[0] != 100 {
		t.Fatalf("far-to-near: fired=%v, want [100]", fired)
	}

	e.Reschedule(h, e.Now()+50)
	e.Reschedule(h, e.Now()+1e9)
	want := e.Now() + 1e9
	e.RunEventsUntil(want)
	if len(fired) != 2 || fired[1] != want {
		t.Fatalf("near-to-far: fired=%v, want second at %d", fired, want)
	}

	// Arm h among the pins, cancel most of them, then cancel h: it must
	// never fire.
	e.Reschedule(h, e.Now()+1e9)
	for _, p := range pins[:len(pins)-18] {
		e.Cancel(p)
	}
	e.RunEventsUntil(e.Now() + 1e6)
	if !e.Scheduled(h) {
		t.Fatal("h lost its pending firing while the pins were canceled")
	}
	e.Cancel(h)
	// Re-arm, grow the queue again, and cancel from the grown queue.
	e.Reschedule(h, e.Now()+10)
	pin(e, initCap, e.Now()+1e6)
	e.Cancel(h)
	e.RunEventsUntil(e.Now() + 2e9)
	if len(fired) != 2 {
		t.Fatalf("canceled event fired: %v", fired)
	}
}
