package queueing

import (
	"math"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"

	"rubik/internal/sim"
	"rubik/internal/workload"
)

// checkingPolicy switches frequency with queue depth (exercising the
// pending-work rescale paths) and cross-checks the incremental
// queue-length/pending-work counters against the O(queue) reference scan
// at every decision point.
type checkingPolicy struct {
	t     *testing.T
	c     *Core
	freqs []int
}

func (p *checkingPolicy) Name() string { return "checking" }
func (p *checkingPolicy) OnEvent(v View) int {
	if got, want := p.c.QueueLen(), len(v.Queue); got != want {
		p.t.Fatalf("QueueLen() = %d, want %d", got, want)
	}
	// The counters accumulate in a different order than the per-request
	// scan ((a+b)-d vs (a-d)+b), so the float sums can differ in the last
	// ulp and the truncated ns by at most 1. The pin is therefore ±1 ns;
	// the golden tests separately prove the pinned experiments (including
	// leastwork clusterscale) route byte-identically to the old scan.
	inc, scan := p.c.PendingWorkNs(), p.c.pendingWorkScan()
	if d := inc - scan; d < -1 || d > 1 {
		p.t.Fatalf("incremental PendingWorkNs %d diverged from scan %d (queue %d)",
			inc, scan, p.c.QueueLen())
	}
	return p.freqs[len(v.Queue)%len(p.freqs)]
}

// TestPendingWorkCountersMatchScan pins the O(1) incremental pending-work
// counters (the jsq/leastwork dispatch path) to the queue rescan they
// replaced, across arrivals, completions, frequency changes and wake
// inflation.
func TestPendingWorkCountersMatchScan(t *testing.T) {
	app := workload.Masstree()
	tr := workload.GenerateAtLoad(app, 0.9, 3000, 11) // high load: deep queues
	cfg := DefaultConfig()                            // 4 us transitions, 5 us wake
	p := &checkingPolicy{t: t, freqs: []int{1200, 3400, 2000, 2700}}
	eng := sim.NewEngine()
	c, err := NewCore(eng, p, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	p.c = c
	f := NewSourceFeeder(eng, workload.NewTraceSource(tr), c.Enqueue)
	f.Start()
	eng.Run()
	res := c.Finalize()
	if len(res.Completions) != len(tr.Requests) {
		t.Fatalf("served %d of %d requests", len(res.Completions), len(tr.Requests))
	}
	if got := c.PendingWorkNs(); got != 0 {
		t.Fatalf("drained core reports pending work %d", got)
	}
}

// TestPendingWorkCountersWithHooks covers the coloc shape: a StartService
// hook inflating the head's remaining work must flow into the counters.
func TestPendingWorkCountersWithHooks(t *testing.T) {
	app := workload.Masstree()
	tr := workload.GenerateAtLoad(app, 0.7, 1500, 5)
	cfg := DefaultConfig()
	p := &checkingPolicy{t: t, freqs: []int{2400, 1600}}
	eng := sim.NewEngine()
	c, err := NewCore(eng, p, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	p.c = c
	c.SetHooks(Hooks{
		StartService: func(a *ActiveRequest, preempting bool) {
			if preempting {
				a.RemainingCC += 50_000 // re-warm cycles
				a.RemainingMem += 2_000 // preemption latency
			}
		},
	})
	f := NewSourceFeeder(eng, workload.NewTraceSource(tr), c.Enqueue)
	f.Start()
	eng.Run()
	if got := len(c.Finalize().Completions); got != len(tr.Requests) {
		t.Fatalf("served %d of %d requests", got, len(tr.Requests))
	}
}

// scriptedPolicy cycles through a script of desires on events and ticks
// alike, "keep" values (0, -1) included, and remembers the last desire
// and a copy of the View it was decided on.
type scriptedPolicy struct {
	script    []int
	n         int
	last      int
	lastView  View
	lastQueue []QueuedRequest
	posEvents int
	posTicks  int
	keeps     int
}

func (p *scriptedPolicy) Name() string        { return "scripted" }
func (p *scriptedPolicy) TickEvery() sim.Time { return 200 * sim.Microsecond }

func (p *scriptedPolicy) desire(v View) int {
	d := p.script[p.n%len(p.script)]
	p.n++
	p.last, p.lastView = d, v
	p.lastQueue = append(p.lastQueue[:0], v.Queue...)
	if d <= 0 {
		p.keeps++
	}
	return d
}

func (p *scriptedPolicy) OnEvent(v View) int {
	d := p.desire(v)
	if d > 0 {
		p.posEvents++
	}
	return d
}

func (p *scriptedPolicy) OnTick(v View) int {
	d := p.desire(v)
	if d > 0 {
		p.posTicks++
	}
	return d
}

// TestGrantFiltersEveryPositiveDesire pins the Grant hook: it sees every
// positive event and tick desire together with the View the policy
// decided on, is never asked about a "keep" desire (0 or less), and what
// it returns is what the core actuates.
func TestGrantFiltersEveryPositiveDesire(t *testing.T) {
	const grantMHz = 1600
	p := &scriptedPolicy{script: []int{3400, 0, 2000, -1, 2700}}
	cfg := bareConfig(2400)
	cfg.RecordTimeline = true
	eng := sim.NewEngine()
	c, err := NewCore(eng, p, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	grants := 0
	c.SetHooks(Hooks{Grant: func(desired int, v View) int {
		grants++
		if desired <= 0 || desired != p.last {
			t.Fatalf("Grant got desire %d; the policy last asked for %d", desired, p.last)
		}
		w := p.lastView
		if v.Now != w.Now || v.CurrentMHz != w.CurrentMHz || v.TargetMHz != w.TargetMHz ||
			v.HeadElapsedCycles != w.HeadElapsedCycles || v.HeadElapsedMemNs != w.HeadElapsedMemNs ||
			len(v.Queue) != len(p.lastQueue) {
			t.Fatalf("Grant saw a View other than the policy's: %+v vs %+v", v, w)
		}
		for i, q := range v.Queue {
			if q != p.lastQueue[i] {
				t.Fatalf("Grant's View queue[%d] = %v, the policy saw %v", i, q, p.lastQueue[i])
			}
		}
		return grantMHz
	}})
	tr := workload.GenerateAtLoad(workload.Masstree(), 0.6, 300, 9)
	f := NewSourceFeeder(eng, workload.NewTraceSource(tr), c.Enqueue)
	f.Start()
	c.Start(f)
	eng.Run()
	res := c.Finalize()
	if p.posEvents == 0 || p.posTicks == 0 || p.keeps == 0 {
		t.Fatalf("script not exercised: %d event and %d tick desires, %d keeps",
			p.posEvents, p.posTicks, p.keeps)
	}
	if want := p.posEvents + p.posTicks; grants != want {
		t.Fatalf("Grant called %d times for %d positive desires", grants, want)
	}
	for _, s := range res.FreqTimeline {
		if s.MHz != cfg.InitialMHz && s.MHz != grantMHz {
			t.Fatalf("core ran at %d MHz at %d, neither initial nor granted", s.MHz, s.T)
		}
	}
	if len(res.FreqTimeline) < 2 {
		t.Fatal("the granted frequency was never actuated")
	}
}

// TestQueueFIFO drives the core's queue through both of its reuse paths
// and checks FIFO order and the per-request bookkeeping survive them.
func TestQueueFIFO(t *testing.T) {
	t.Run("bursts that drain", testQueueDrainingBursts)
	t.Run("never drains", testQueueNeverDrains)
}

// testQueueDrainingBursts grows the queue through many bursts that each
// drain, so it restarts at the front every time.
func testQueueDrainingBursts(t *testing.T) {
	// Bursts of 40 arriving faster than they drain, many times over.
	var reqs []workload.Request
	var at sim.Time
	id := 0
	for burst := 0; burst < 30; burst++ {
		for i := 0; i < 40; i++ {
			reqs = append(reqs, workload.Request{
				ID: id, Arrival: at, ComputeCycles: 24_000, // 10 us at 2.4 GHz
			})
			id++
			at += 2_000 // 2 us apart: queue builds
		}
		at += 600_000 // drain gap
	}
	res, err := Run(workload.Trace{Requests: reqs}, FixedPolicy{MHz: 2400}, bareConfig(2400))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Completions) != len(reqs) {
		t.Fatalf("served %d of %d", len(res.Completions), len(reqs))
	}
	prevDone := sim.Time(-1)
	for i, comp := range res.Completions {
		if comp.ID != i {
			t.Fatalf("completion %d has ID %d: FIFO order broken", i, comp.ID)
		}
		if comp.Done < prevDone {
			t.Fatalf("completion %d done at %d before predecessor at %d", i, comp.Done, prevDone)
		}
		prevDone = comp.Done
	}
	// Spot-check the arrival-population stamp on the second burst: request
	// 40 arrives into a fresh busy period, request 41 finds one in system.
	if res.Completions[40].QueueLenAtArrival != 0 || res.Completions[41].QueueLenAtArrival == 0 {
		t.Fatal("queue-length stamp lost across a drained queue")
	}
}

// hysteresisPolicy runs slow (the queue grows) until the queue holds
// more than hi requests and fast (it shrinks) until it holds fewer than
// lo, and keeps the current frequency in between.
type hysteresisPolicy struct{ lo, hi int }

func (p hysteresisPolicy) Name() string { return "hysteresis" }
func (p hysteresisPolicy) OnEvent(v View) int {
	switch n := len(v.Queue); {
	case n > p.hi:
		return 3400
	case n < p.lo:
		return 1200
	}
	return 0
}

// testQueueNeverDrains keeps thousands of requests queued without the
// queue ever draining, so the slice is compacted with a request in
// service, while DVFS switches land mid-request. After every event it
// checks the queue against the core's counters; afterwards it checks
// FIFO order, every arrival-population stamp, the measured work, and
// every service time against the request's work at the frequencies it
// ran at.
func testQueueNeverDrains(t *testing.T) {
	const n = 4000
	reqs := make([]workload.Request, n)
	for i := range reqs {
		// 10 us apart; a request takes 9.06 us at 3.4 GHz and 22 us at
		// 1.2 GHz, so the queue swings between the policy's thresholds.
		reqs[i] = workload.Request{
			ID: i, Arrival: sim.Time(i)*10_000 + 1, ComputeCycles: 24_000, MemTime: 2_000,
		}
	}
	cfg := bareConfig(2400)
	cfg.TransitionLatency = 3 * sim.Microsecond
	cfg.RecordTimeline = true
	eng := sim.NewEngine()
	c, err := NewCore(eng, hysteresisPolicy{lo: 8, hi: 24}, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	qlen := make([]int, n) // population each request found, seen from outside
	f := NewSourceFeeder(eng, workload.NewTraceSource(workload.Trace{Requests: reqs}), func(r workload.Request) {
		qlen[r.ID] = c.QueueLen()
		c.Enqueue(r)
	})
	f.Start()
	c.Start(f)
	compactions, prevHead := 0, 0
	for eng.Step() {
		if got, want := c.QueueLen(), len(c.queue)-c.qhead; got != want || got < 0 {
			t.Fatalf("QueueLen %d, queue holds %d", got, want)
		}
		if inc, scan := c.PendingWorkNs(), c.pendingWorkScan(); inc-scan < -1 || inc-scan > 1 {
			t.Fatalf("incremental PendingWorkNs %d diverged from scan %d (queue %d)", inc, scan, c.QueueLen())
		}
		for i := c.qhead + 1; i < len(c.queue); i++ {
			if a, b := &c.queue[i-1], &c.queue[i]; b.active.Req.ID != a.active.Req.ID+1 || b.Arrival != b.active.Req.Arrival {
				t.Fatalf("queue out of order: request %d after %d", b.active.Req.ID, a.active.Req.ID)
			}
		}
		if c.qhead < prevHead && c.QueueLen() > 0 && c.head().ElapsedCC > 0 {
			compactions++ // the head, part served, moved to the front
		}
		prevHead = c.qhead
	}
	res := c.Finalize()
	if len(res.Completions) != n {
		t.Fatalf("served %d of %d", len(res.Completions), n)
	}
	if compactions == 0 {
		t.Fatal("the queue was never compacted with a request in service")
	}
	timeline := res.FreqTimeline
	midSwitches := 0
	for i, comp := range res.Completions {
		if comp.ID != i {
			t.Fatalf("completion %d has ID %d: FIFO order broken", i, comp.ID)
		}
		if comp.QueueLenAtArrival != qlen[i] {
			t.Fatalf("request %d: QueueLenAtArrival %d, found %d in the system", i, comp.QueueLenAtArrival, qlen[i])
		}
		if i > 0 && (qlen[i] == 0 || comp.Start != res.Completions[i-1].Done) {
			t.Fatalf("request %d: the queue drained (found %d, started %d after %d)",
				i, qlen[i], comp.Start, res.Completions[i-1].Done)
		}
		// The share of the request served over [a, b) at f MHz is
		// (b-a)/T(f), T(f) its whole service time at f. It completes when
		// the shares reach 1.
		req := reqs[i]
		share, at, done := 0.0, float64(comp.Start), math.NaN()
		for k, s := range timeline {
			end := math.Inf(1)
			if k+1 < len(timeline) {
				end = float64(timeline[k+1].T)
			}
			if end <= at {
				continue
			}
			if s.T > comp.Start && s.T < comp.Done {
				midSwitches++
			}
			full := req.ServiceNs(s.MHz)
			if left := (1 - share) * full; at+left <= end {
				done = at + left
				break
			}
			share += (end - at) / full
			at = end
		}
		if math.Abs(float64(comp.Done)-done) > 1 {
			t.Fatalf("request %d done at %d, its work at the frequencies it ran at ends at %.1f",
				i, comp.Done, done)
		}
		if math.Abs(comp.ComputeCycles-req.ComputeCycles) > 1e-6*req.ComputeCycles ||
			comp.MemTime < req.MemTime-1 || comp.MemTime > req.MemTime+1 {
			t.Fatalf("request %d measured (%v cycles, %d ns), its work is (%v, %d)",
				i, comp.ComputeCycles, comp.MemTime, req.ComputeCycles, req.MemTime)
		}
		if want := float64(comp.Done - comp.Start); comp.ServiceNs() != want {
			t.Fatalf("request %d: ServiceNs %v, Done-Start %v", i, comp.ServiceNs(), want)
		}
	}
	if midSwitches == 0 {
		t.Fatal("no frequency switch landed mid-request")
	}
}

// retainingPolicy deliberately violates the View contract: it keeps the
// Queue slice from every decision and remembers what the slice held at
// retention time.
type retainingPolicy struct {
	retained []QueuedRequest
	copied   []QueuedRequest
}

func (p *retainingPolicy) Name() string { return "retaining" }
func (p *retainingPolicy) OnEvent(v View) int {
	if len(v.Queue) >= 2 && p.retained == nil {
		p.retained = v.Queue
		p.copied = append([]QueuedRequest(nil), v.Queue...)
	}
	return 0
}

func retentionTrace() workload.Trace {
	return workload.Trace{Requests: []workload.Request{
		{ID: 0, Arrival: 0, ComputeCycles: 2_400_000},
		{ID: 1, Arrival: 100_000, ComputeCycles: 2_400_000},
		{ID: 2, Arrival: 3_000_000, ComputeCycles: 240_000},
		{ID: 3, Arrival: 3_050_000, ComputeCycles: 240_000},
	}}
}

// TestViewRetentionIsUnsafe documents and pins the View contract from the
// non-race side: the Queue snapshot aliases a core-owned buffer, so a
// policy that retains it observes the buffer's later contents, not its
// snapshot. (Race-instrumented builds turn the same violation into a data
// race; see TestViewRetentionCaughtByRaceDetector.)
func TestViewRetentionIsUnsafe(t *testing.T) {
	if raceEnabled {
		// Under -race the retained slice is poisoned from another
		// goroutine; reading it here would be the very race the mechanism
		// exists to report.
		t.Skip("race-instrumented build: retention is caught by the race detector instead")
	}
	p := &retainingPolicy{}
	if _, err := Run(retentionTrace(), p, bareConfig(2400)); err != nil {
		t.Fatal(err)
	}
	if p.retained == nil {
		t.Fatal("trace never reached queue depth 2")
	}
	same := true
	for i := range p.retained {
		if p.retained[i] != p.copied[i] {
			same = false
		}
	}
	if same {
		t.Fatal("retained snapshot survived unchanged; buffer reuse contract not exercised")
	}
}

// TestViewRetentionRaceProbe is the subprocess half of the race test: it
// retains View.Queue and then reads it, which races with the poisoner
// under -race. Only run deliberately (RUBIK_VIEW_RACE_PROBE=1).
func TestViewRetentionRaceProbe(t *testing.T) {
	if os.Getenv("RUBIK_VIEW_RACE_PROBE") == "" {
		t.Skip("probe only runs under TestViewRetentionCaughtByRaceDetector")
	}
	p := &retainingPolicy{}
	if _, err := Run(retentionTrace(), p, bareConfig(2400)); err != nil {
		t.Fatal(err)
	}
	var sum sim.Time
	for _, q := range p.retained { // unsynchronized read of a poisoned slice
		sum += q.Arrival
	}
	t.Logf("retained sum %d", sum)
}

// TestViewRetentionCaughtByRaceDetector asserts the enforcement works: a
// policy retaining View.Queue fails `go test -race` with a data-race
// report.
func TestViewRetentionCaughtByRaceDetector(t *testing.T) {
	runRaceProbe(t, "TestViewRetentionRaceProbe")
}

// burstTrace is n requests, one every 10 µs, each a microsecond of
// compute at 2.4 GHz: every arrival decision sees a non-empty queue, so
// a run retires at least n snapshots.
func burstTrace(n int) workload.Trace {
	reqs := make([]workload.Request, n)
	for i := range reqs {
		reqs[i] = workload.Request{ID: i, Arrival: sim.Time(i) * 10_000, ComputeCycles: 2_400}
	}
	return workload.Trace{Requests: reqs}
}

// TestCrossCoreRaceProbe is the subprocess half of
// TestCrossCoreRaceCaughtByRaceDetector: three goroutines each simulate a
// core. A variable the first writes before its run the third reads after
// its own, with nothing ordering the two; the second starts in between
// and retires four poisoner windows of snapshots. Were the poisoner
// shared by all cores, its channel would order the read after the write
// and hide the race. The sleeps only stagger the runs. The writer waits
// for the read before it exits: the race detector recycles a finished
// goroutine's access history first, and would forget the write's stack.
// Only run deliberately (RUBIK_VIEW_RACE_PROBE=1).
func TestCrossCoreRaceProbe(t *testing.T) {
	if os.Getenv("RUBIK_VIEW_RACE_PROBE") == "" {
		t.Skip("probe only runs under TestCrossCoreRaceCaughtByRaceDetector")
	}
	var shared int
	errs := make(chan error, 3)
	run := func(delay time.Duration, n int) error {
		time.Sleep(delay)
		_, err := Run(burstTrace(n), FixedPolicy{MHz: 2400}, bareConfig(2400))
		return err
	}
	read := make(chan struct{})
	go func() {
		shared = 1 // the planted write
		err := run(0, 16)
		<-read
		errs <- err
	}()
	go func() { errs <- run(20*time.Millisecond, 4*1024) }()
	go func() {
		err := run(200*time.Millisecond, 16)
		t.Logf("shared %d", shared) // the planted read
		close(read)
		errs <- err
	}()
	for range 3 {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// TestCrossCoreRaceCaughtByRaceDetector asserts that view poisoning adds
// no ordering between goroutines that run different cores: a race
// between them is still reported, thousands of retirements apart.
func TestCrossCoreRaceCaughtByRaceDetector(t *testing.T) {
	runRaceProbe(t, "TestCrossCoreRaceProbe")
}

// runRaceProbe runs one probe test under `go test -race` and asserts it
// fails with a data-race report. It shells out so the expected failure
// cannot fail this process.
func runRaceProbe(t *testing.T, probe string) {
	t.Helper()
	if raceEnabled {
		t.Skip("already race-instrumented; the probe would fail this process")
	}
	if testing.Short() {
		t.Skip("subprocess go test -race in short mode")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not on PATH")
	}
	cmd := exec.Command(goBin, "test", "-race", "-count=1",
		"-run", "^"+probe+"$", "rubik/internal/queueing")
	cmd.Env = append(os.Environ(), "RUBIK_VIEW_RACE_PROBE=1")
	out, err := cmd.CombinedOutput()
	s := string(out)
	if err == nil {
		t.Fatalf("%s passed under -race; the race went unreported:\n%s", probe, s)
	}
	if strings.Contains(s, "cgo: C compiler") || strings.Contains(s, "race is not supported") {
		t.Skipf("-race unavailable in this environment:\n%s", s)
	}
	if !strings.Contains(s, "DATA RACE") {
		t.Fatalf("expected a data-race report, got:\n%s", s)
	}
}

// TestFeederSingleArrivalEvent pins the feeder satellite: replaying a
// trace keeps exactly one pending arrival event, rescheduled in place,
// instead of a closure per request.
func TestFeederSingleArrivalEvent(t *testing.T) {
	app := workload.Masstree()
	tr := workload.GenerateAtLoad(app, 0.5, 200, 3)
	eng := sim.NewEngine()
	c, err := NewCore(eng, FixedPolicy{MHz: 2400}, bareConfig(2400), nil)
	if err != nil {
		t.Fatal(err)
	}
	f := NewSourceFeeder(eng, workload.NewTraceSource(tr), c.Enqueue)
	f.Start()
	if eng.Pending() != 1 {
		t.Fatalf("pending after Start = %d, want 1", eng.Pending())
	}
	for eng.Step() {
		// At most: one arrival (feeder), one completion, one DVFS switch.
		if got := eng.Pending(); got > 3 {
			t.Fatalf("pending events grew to %d; feeder is not reusing its handle", got)
		}
	}
	if got := len(c.Finalize().Completions); got != len(tr.Requests) {
		t.Fatalf("served %d of %d", got, len(tr.Requests))
	}
	if f.More() {
		t.Fatal("feeder left requests undelivered")
	}
}

// pendingWorkScan is the O(queue) reference for PendingWorkNs: the
// equality test pins the incremental counters to it.
func (c *Core) pendingWorkScan() sim.Time {
	var cc, mem float64
	for _, q := range c.queue[c.qhead:] {
		cc += q.active.RemainingCC
		mem += q.active.RemainingMem
	}
	return sim.Time(cc*1000/float64(c.cur) + mem)
}
