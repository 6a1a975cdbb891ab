package sim

import (
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"
	"testing/quick"
)

func TestEngineOrdersEvents(t *testing.T) {
	e := NewEngine()
	var order []int
	oneShot(e, 30, func() { order = append(order, 3) })
	oneShot(e, 10, func() { order = append(order, 1) })
	oneShot(e, 20, func() { order = append(order, 2) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if e.Now() != 30 {
		t.Fatalf("now = %d, want 30", e.Now())
	}
}

func TestEngineFIFOAtSameTimestamp(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		oneShot(e, 5, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-timestamp events fired out of order: %v", order)
		}
	}
}

func TestEnginePastSchedulingClamps(t *testing.T) {
	e := NewEngine()
	fired := false
	oneShot(e, 100, func() {
		oneShot(e, 50, func() { fired = true }) // in the past
	})
	e.Run()
	if !fired {
		t.Fatal("past-scheduled event never fired")
	}
	if e.Now() != 100 {
		t.Fatalf("clock went backwards: %d", e.Now())
	}
}

func TestEngineAfter(t *testing.T) {
	e := NewEngine()
	var at Time
	oneShot(e, 10, func() {
		oneShotAfter(e, 25, func() { at = e.Now() })
	})
	e.Run()
	if at != 35 {
		t.Fatalf("oneShotAfter fired at %d, want 35", at)
	}
}

// TestEngineRunUntil, TestEngineRunUntilBoundaryInclusive and
// TestEngineRunUntilEqualTimestampOrder pin RunEventsUntil, the bounded
// run fleet phases use: it fires every event due by the bound and leaves
// the clock on the last event it fired.
func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	var fired []Time
	for _, ts := range []Time{5, 10, 15, 20} {
		ts := ts
		oneShot(e, ts, func() { fired = append(fired, ts) })
	}
	if e.RunEventsUntil(12) {
		t.Fatal("RunEventsUntil(12) reported a drain with events at 15 and 20 pending")
	}
	if len(fired) != 2 {
		t.Fatalf("fired = %v, want events at 5 and 10", fired)
	}
	if e.Now() != 10 {
		t.Fatalf("now = %d, want the last fired event's 10", e.Now())
	}
	if e.Pending() != 2 {
		t.Fatalf("pending = %d, want 2", e.Pending())
	}
	e.Run()
	if len(fired) != 4 {
		t.Fatalf("remaining events lost: %v", fired)
	}
}

func TestEngineRunUntilBoundaryInclusive(t *testing.T) {
	// Events at exactly t fire, and an event that an in-window event
	// schedules AT the boundary also fires within the same call.
	e := NewEngine()
	var fired []string
	oneShot(e, 10, func() {
		fired = append(fired, "a")
		oneShot(e, 12, func() { fired = append(fired, "chained@12") })
	})
	oneShot(e, 12, func() { fired = append(fired, "b@12") })
	oneShot(e, 13, func() { fired = append(fired, "c@13") })
	if e.RunEventsUntil(12) {
		t.Fatal("RunEventsUntil(12) reported a drain with an event at 13 pending")
	}
	want := []string{"a", "b@12", "chained@12"}
	if len(fired) != len(want) {
		t.Fatalf("fired = %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired = %v, want %v", fired, want)
		}
	}
	if e.Now() != 12 {
		t.Fatalf("now = %d, want 12", e.Now())
	}
}

func TestEngineRunUntilEqualTimestampOrder(t *testing.T) {
	// Equal-timestamp events split across two calls keep scheduling
	// order: none fires early, the bound that fires nothing leaves the
	// clock alone, and the second call fires them exactly as scheduled.
	e := NewEngine()
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		oneShot(e, 20, func() { order = append(order, i) })
	}
	e.RunEventsUntil(19)
	if len(order) != 0 {
		t.Fatalf("events at 20 fired during RunEventsUntil(19): %v", order)
	}
	if e.Now() != 0 {
		t.Fatalf("now = %d, want 0: a bound that fires nothing leaves no trace", e.Now())
	}
	if !e.RunEventsUntil(20) {
		t.Fatal("RunEventsUntil(20) did not drain")
	}
	if len(order) != 5 {
		t.Fatalf("fired %v, want all five events at 20", order)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("same-timestamp events fired out of order: %v", order)
		}
	}
}

func TestEngineInterleavedAtAndAfterSameTimestamp(t *testing.T) {
	// oneShot(now+d) and oneShotAfter(d) land at the same instant and fire in
	// scheduling order — the property cluster dispatch relies on when an
	// arrival, a DVFS switch and a completion coincide.
	e := NewEngine()
	var order []string
	oneShot(e, 5, func() {
		oneShotAfter(e, 10, func() { order = append(order, "after") })
		oneShot(e, 15, func() { order = append(order, "at") })
	})
	e.Run()
	if len(order) != 2 || order[0] != "after" || order[1] != "at" {
		t.Fatalf("order = %v, want [after at]", order)
	}
}

func TestEngineStepEmpty(t *testing.T) {
	e := NewEngine()
	if e.Step() {
		t.Fatal("Step on empty engine must return false")
	}
}

func TestEngineHandleReschedule(t *testing.T) {
	e := NewEngine()
	var fired []Time
	h := e.Register(func() { fired = append(fired, e.Now()) })
	e.Reschedule(h, 100)
	e.Reschedule(h, 40) // move earlier: a handle holds one pending firing
	if !e.Scheduled(h) {
		t.Fatal("handle not scheduled after Reschedule")
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d, want 1 (reschedule must move, not duplicate)", e.Pending())
	}
	e.Run()
	if len(fired) != 1 || fired[0] != 40 {
		t.Fatalf("fired = %v, want [40]", fired)
	}
	if e.Scheduled(h) {
		t.Fatal("handle still scheduled after firing")
	}
	// Re-arm after firing: handles are reusable.
	e.Reschedule(h, 200)
	e.Run()
	if len(fired) != 2 || fired[1] != 200 {
		t.Fatalf("fired = %v, want [40 200]", fired)
	}
	// The displaced time (100) drags the drained clock, like the tombstone
	// the pre-handle engine would have popped — but 200 has passed it.
	if e.Now() != 200 {
		t.Fatalf("now = %d, want 200", e.Now())
	}
}

func TestEngineHandleCancel(t *testing.T) {
	e := NewEngine()
	fired := 0
	h := e.Register(func() { fired++ })
	e.Cancel(h) // cancel while unscheduled: no-op
	e.Reschedule(h, 50)
	e.Cancel(h)
	if e.Scheduled(h) || e.Pending() != 0 {
		t.Fatal("cancel left the event scheduled")
	}
	oneShot(e, 10, func() {})
	e.Run()
	if fired != 0 {
		t.Fatal("canceled event fired")
	}
	// The canceled firing time drags the drained clock (legacy tombstone
	// drain semantics): the last event ran at 10, but 50 was once scheduled.
	if e.Now() != 50 {
		t.Fatalf("now = %d, want 50 (displaced firing drags the drain clock)", e.Now())
	}
}

func TestEngineHandleRescheduleKeepsTieOrder(t *testing.T) {
	// A reschedule counts as a fresh scheduling: among equal timestamps it
	// fires after events already scheduled there.
	e := NewEngine()
	var order []string
	h := e.Register(func() { order = append(order, "handle") })
	e.Reschedule(h, 10)
	oneShot(e, 20, func() { order = append(order, "closure@20") })
	e.Reschedule(h, 20) // moved after closure@20 was scheduled
	e.Run()
	if len(order) != 2 || order[0] != "closure@20" || order[1] != "handle" {
		t.Fatalf("order = %v, want [closure@20 handle]", order)
	}
}

func TestEngineHandleSelfRescheduleInCallback(t *testing.T) {
	// The completion/tick/feeder shape: a handle re-arms itself while
	// firing. Zero allocations in steady state.
	e := NewEngine()
	n := 0
	var h Handle
	h = e.Register(func() {
		n++
		if n < 5 {
			e.RescheduleAfter(h, 7)
		}
	})
	e.Reschedule(h, 7)
	e.Run()
	if n != 5 || e.Now() != 35 {
		t.Fatalf("n=%d now=%d, want 5 fires ending at 35", n, e.Now())
	}
}

func TestEngineRescheduleClampsPast(t *testing.T) {
	e := NewEngine()
	var at Time
	h := e.Register(func() { at = e.Now() })
	oneShot(e, 100, func() { e.Reschedule(h, 50) })
	e.Run()
	if at != 100 {
		t.Fatalf("past reschedule fired at %d, want clamp to 100", at)
	}
}

func TestEngineMonotonicClockProperty(t *testing.T) {
	// Property: for random event sets, the engine fires them in sorted
	// order and the clock never goes backwards.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		e := NewEngine()
		n := 1 + r.Intn(200)
		times := make([]Time, n)
		var fired []Time
		for i := range times {
			times[i] = Time(r.Intn(1000))
			ts := times[i]
			oneShot(e, ts, func() { fired = append(fired, ts) })
		}
		e.Run()
		sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
		if len(fired) != n {
			return false
		}
		for i := range fired {
			if fired[i] != times[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestRunEventsUntilSegmented pins the epoch-barrier contract: slicing a
// run at arbitrary barriers with RunEventsUntil fires the same events in
// the same order and ends on exactly the clock one Run() produces — the
// barriers themselves leave no trace. Rescheduling displacement is
// included so the phantom drain clock is exercised too.
func TestRunEventsUntilSegmented(t *testing.T) {
	build := func(e *Engine, fired *[]Time) {
		for _, at := range []Time{70, 10, 350, 130, 130, 520} {
			at := at
			oneShot(e, at, func() { *fired = append(*fired, at) })
		}
		h := e.Register(func() { *fired = append(*fired, e.Now()) })
		e.Reschedule(h, 90)
		// Displace a far firing so the drain clock comes from phantom.
		far := e.Register(func() {})
		e.Reschedule(far, 900)
		oneShot(e, 40, func() { e.Reschedule(far, 260) })
	}

	var wantFired []Time
	want := NewEngine()
	build(want, &wantFired)
	want.Run()

	var gotFired []Time
	got := NewEngine()
	build(got, &gotFired)
	drained := false
	for _, barrier := range []Time{10, 60, 60, 130, 200, 400} {
		if got.RunEventsUntil(barrier) {
			t.Fatalf("drained early at barrier %d", barrier)
		}
		if got.Now() > barrier {
			t.Fatalf("clock %d ran past barrier %d", got.Now(), barrier)
		}
		drained = got.Pending() == 0
	}
	if drained {
		t.Fatal("events must remain after the last barrier")
	}
	if !got.RunEventsUntil(1 << 50) {
		t.Fatal("final segment did not drain")
	}
	if got.Now() != want.Now() {
		t.Fatalf("segmented clock %d != Run clock %d", got.Now(), want.Now())
	}
	if !reflect.DeepEqual(gotFired, wantFired) {
		t.Fatalf("segmented firing order %v != Run order %v", gotFired, wantFired)
	}

	// A barrier at an event's exact timestamp fires it (<= semantics), and
	// the clock rests on the event, not the barrier.
	e2 := NewEngine()
	n := 0
	oneShot(e2, 100, func() { n++ })
	oneShot(e2, 150, func() { n++ })
	if e2.RunEventsUntil(100) {
		t.Fatal("event at 150 still pending")
	}
	if n != 1 || e2.Now() != 100 {
		t.Fatalf("barrier-at-timestamp: fired %d, clock %d; want 1 fired at clock 100", n, e2.Now())
	}
}

// TestEngineFootprint pins the engine's fixed cost per socket: a fresh
// engine plus a 6-core socket's handles (completion, DVFS switch and
// controller tick per core, plus an arrival feeder) allocates under 4 KB.
func TestEngineFootprint(t *testing.T) {
	const rounds = 64
	engines := make([]*Engine, rounds) // keeps every engine on the heap
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range engines {
		engines[i] = NewEngine()
		for j := 0; j < 6*3+1; j++ {
			engines[i].Register(func() {})
		}
	}
	runtime.ReadMemStats(&after)
	if b := (after.TotalAlloc - before.TotalAlloc) / rounds; b >= 4096 {
		t.Fatalf("fresh engine + 19 handles allocates %d B, want < 4096", b)
	}
}

// TestEngineGrowthChurnAllocs pins zero steady-state allocations for churn
// past the pending array's initial capacity: every round 32 reschedules
// fill the queue beyond initCap and the drain empties it, reusing the
// grown array.
func TestEngineGrowthChurnAllocs(t *testing.T) {
	e := NewEngine()
	hs := make([]Handle, 32)
	for i := range hs {
		hs[i] = e.Register(func() {})
	}
	allocs := testing.AllocsPerRun(100, func() {
		for i, h := range hs {
			e.Reschedule(h, e.Now()+Time(1+i%7))
		}
		e.Run()
	})
	if allocs != 0 {
		t.Fatalf("growth churn: %v allocs/op, want 0", allocs)
	}
}
