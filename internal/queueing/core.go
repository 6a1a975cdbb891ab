package queueing

import (
	"fmt"
	"math"

	"rubik/internal/cpu"
	"rubik/internal/sim"
	"rubik/internal/stats"
	"rubik/internal/workload"
)

// ActiveRequest is one request inside a Core: the immutable trace request
// plus its remaining/elapsed work split. Hooks may inflate the remaining
// work when service begins (wake penalties, colocation interference); the
// elapsed counters then report the inflated work, exactly as CPI-stack
// performance counters would.
//
// ActiveRequests live by value inside the entries of the core's queue; the
// pointer a hook receives is valid only for the duration of the hook call
// and must not be retained.
type ActiveRequest struct {
	Req workload.Request
	// RemainingCC / RemainingMem are compute cycles and memory-bound ns
	// left to serve.
	RemainingCC  float64
	RemainingMem float64
	// ElapsedCC / ElapsedMem are the work already performed.
	ElapsedCC  float64
	ElapsedMem float64
	// Start is when the request reached the head of the queue.
	Start sim.Time
	// QlenAtArrival is the system population the request found on arrival.
	QlenAtArrival int
}

// Hooks customize a Core at its extension points. Every field is optional;
// the zero Hooks value reproduces the standalone latency-critical server
// (idle time is slept, the first request of a busy period pays the wake
// penalty). The coloc package fills the hooks to run batch work in the
// idle gaps and charge core-state interference; a capped cluster sets
// Grant to route every core's decisions through its power domain.
type Hooks struct {
	// StartService fires when a request reaches the head of the queue,
	// after Start is stamped. preempting is true when the request begins a
	// busy period (the core was idle or occupied by other work). When nil,
	// the default adds Config.WakeLatency to the first request of each
	// busy period. The *ActiveRequest points into the core's queue: mutate
	// it synchronously, do not retain it.
	StartService func(a *ActiveRequest, preempting bool)
	// Idle fires when the queue drains. When set, it replaces the default
	// empty-queue policy decision after the draining completion.
	Idle func(now sim.Time)
	// IdleAccrual, when set, replaces idle-energy metering for spans where
	// the queue is empty (coloc: batch work runs in the gaps and pays its
	// own energy).
	IdleAccrual func(dtNs float64, curMHz int)
	// Grant, when set, filters every positive frequency the policy asks
	// for, on events and ticks alike, before it is actuated. It sees the
	// View the policy decided on (read it synchronously) and returns the
	// frequency to apply; 0 or less keeps the current setting. A capped
	// cluster reconciles the desire with its power domain; coloc returns
	// 0 while the LC queue is empty, since batch then owns the frequency.
	Grant func(desiredMHz int, v View) int
}

// Core is the single-core run loop every simulated server in the repo is
// built on: a FIFO queue served by a DVFS-capable core on a shared
// discrete-event engine. The standalone Run, the coloc colocated core and
// the cluster package all consume it; arrivals are pushed in via Enqueue
// (by a Feeder or a cluster dispatcher the Feeder drives) at the engine's
// current time.
//
// The event hot path is allocation-free in steady state: requests live by
// value in one queue slice whose space is reused once it covers the peak
// depth, the completion/switch/tick events are pre-registered engine
// handles moved with Reschedule/Cancel, the policy View aliases the live
// part of the queue, and the pending-work counters are maintained
// incrementally so dispatchers never rescan the queue.
type Core struct {
	eng    *sim.Engine
	cfg    Config
	policy Policy
	// obs is policy as a CompletionObserver, nil when it is not one.
	obs   CompletionObserver
	hooks Hooks

	// queue holds the requests in the system, the one in service first at
	// queue[qhead]; arrivals append. When the slice is full and its head
	// half spent, the live requests move to the front instead of growing
	// it, so it stays within twice the peak queue depth; a drained queue
	// restarts at the front. A View's Queue aliases queue[qhead:].
	queue []QueuedRequest
	qhead int

	// pendCC/pendMem sum RemainingCC/RemainingMem over the queue: the O(1)
	// pending-work counters behind PendingWorkNs. Updated on enqueue,
	// accrual, service-begin inflation and completion.
	pendCC  float64
	pendMem float64

	// views is the race build's poisoner of retired snapshots (see
	// view_norace.go / view_race.go).
	views viewState

	meter *cpu.EnergyMeter

	cur         int
	target      int
	targetStep  int // target's grid index
	lastAccrual sim.Time

	completionH sim.Handle
	switchH     sim.Handle
	tickH       sim.Handle

	// feed is the feeder whose arrivals reach this core (set by Start):
	// ticks run while it has more, and completions go back through it to
	// a completion-aware source.
	feed *Feeder

	// log records completions into the socket's arena (unused under
	// DropCompletions, which folds them into respHist instead).
	log      arenaLog
	served   int
	respHist *stats.LogHistogram

	freqTimeline   []FreqSample
	energyTimeline []EnergySample
}

// NewCore validates the config — a non-empty grid, an on-grid initial
// frequency, non-negative transition and wake latencies and a physical
// power model — and prepares a core on the engine. Every simulated core
// is built here, so this is the one server-config validator. policy may
// be nil when an external allocator owns the frequency (coloc HW-T /
// HW-TPW); such a core never decides, it only serves. The core records
// its completions into log, the arena it shares with the other cores of
// its socket; a nil log gives it an arena of its own, grown as it fills.
func NewCore(eng *sim.Engine, p Policy, cfg Config, log *Arena) (*Core, error) {
	if cfg.Grid.Len() == 0 {
		return nil, fmt.Errorf("queueing: config has empty grid")
	}
	if cfg.InitialMHz == 0 {
		cfg.InitialMHz = cpu.NominalMHz
	}
	step := cfg.Grid.Index(cfg.InitialMHz)
	if step < 0 {
		return nil, fmt.Errorf("queueing: initial frequency %d not on grid", cfg.InitialMHz)
	}
	if cfg.TransitionLatency < 0 || cfg.WakeLatency < 0 {
		return nil, fmt.Errorf("queueing: negative latency (transition %d ns, wake %d ns)",
			cfg.TransitionLatency, cfg.WakeLatency)
	}
	if err := cfg.Power.Validate(); err != nil {
		return nil, err
	}
	c := &Core{
		eng:        eng,
		cfg:        cfg,
		policy:     p,
		meter:      cpu.NewEnergyMeter(cfg.Grid, cfg.Power),
		cur:        cfg.InitialMHz,
		target:     cfg.InitialMHz,
		targetStep: step,
	}
	c.obs, _ = p.(CompletionObserver)
	c.meter.SetFreq(step, cfg.InitialMHz)
	c.completionH = eng.Register(c.completionEvent)
	c.switchH = eng.Register(c.switchEvent)
	if cfg.DropCompletions {
		// Streaming mode: per-request records fold into a fixed-size
		// response histogram instead of an O(requests) log, so memory is
		// independent of run length.
		c.respHist = stats.NewResponseHistogram()
	} else {
		if log == nil {
			log = NewArena(0, 1)
		}
		c.log = arenaLog{a: log, user: log.join()}
	}
	if cfg.RecordTimeline {
		c.freqTimeline = append(c.freqTimeline, FreqSample{T: 0, MHz: c.cur})
	}
	return c, nil
}

// SetHooks installs the customization hooks. Call before the first event.
func (c *Core) SetHooks(h Hooks) { c.hooks = h }

// Start binds the core to f, the feeder whose arrivals reach it (directly
// or through a dispatcher), and schedules the policy's periodic tick, if
// it is a Ticker. The core forwards every completion to f, which feeds a
// completion-aware source; ticking stops once f has no more arrivals and
// the queue has drained, so the simulation terminates. Call it once,
// after f.Start.
func (c *Core) Start(f *Feeder) {
	c.feed = f
	t, ok := c.policy.(Ticker)
	if !ok || t.TickEvery() <= 0 {
		return
	}
	c.tickH = c.eng.Register(func() { c.tickEvent(t) })
	c.eng.RescheduleAfter(c.tickH, t.TickEvery())
}

// head returns the request in service; the queue must not be empty.
func (c *Core) head() *ActiveRequest { return &c.queue[c.qhead].active }

// Enqueue delivers a request to the core at the engine's current time.
func (c *Core) Enqueue(req workload.Request) {
	c.Accrue()
	n := c.QueueLen()
	if len(c.queue) == cap(c.queue) && c.qhead >= len(c.queue)/2 {
		c.queue = c.queue[:copy(c.queue, c.queue[c.qhead:])]
		c.qhead = 0
	}
	c.queue = append(c.queue, QueuedRequest{Arrival: req.Arrival, active: ActiveRequest{
		Req:           req,
		RemainingCC:   req.ComputeCycles,
		RemainingMem:  float64(req.MemTime),
		QlenAtArrival: n,
	}})
	a := &c.queue[len(c.queue)-1].active
	wasIdle := n == 0
	c.pendCC += a.RemainingCC
	c.pendMem += a.RemainingMem
	if wasIdle {
		c.startService(a, true)
	}
	c.decide()
	if wasIdle {
		c.rescheduleCompletion()
	}
}

// startService stamps the head request's service start and applies the
// service-begin hook (wake penalty / interference inflation), folding any
// remaining-work inflation into the pending-work counters.
func (c *Core) startService(a *ActiveRequest, preempting bool) {
	a.Start = c.eng.Now()
	ccBefore, memBefore := a.RemainingCC, a.RemainingMem
	if c.hooks.StartService != nil {
		c.hooks.StartService(a, preempting)
	} else if preempting {
		// Sleep exit: the first request of a busy period pays the wake
		// penalty as additional non-scalable time.
		a.RemainingMem += float64(c.cfg.WakeLatency)
	}
	c.pendCC += a.RemainingCC - ccBefore
	c.pendMem += a.RemainingMem - memBefore
}

// Accrue charges energy and advances the head request's progress from the
// last accrual point to now. Frequency is constant over that span because
// every frequency change is itself an event that accrues first. Exported
// so epoch-driven allocators (coloc HW schemes) and dispatchers that need
// fresh queue state can bring the core up to date mid-run.
func (c *Core) Accrue() {
	now := c.eng.Now()
	dt := now - c.lastAccrual
	c.lastAccrual = now
	if dt <= 0 {
		return
	}
	if c.QueueLen() == 0 {
		if c.hooks.IdleAccrual != nil {
			c.hooks.IdleAccrual(float64(dt), c.cur)
		} else {
			c.meter.AccrueIdle(dt)
		}
		return
	}
	c.meter.AccrueActive(dt)
	if c.cfg.RecordTimeline {
		j := c.meter.ActiveWatts() * float64(dt) / 1e9
		c.energyTimeline = append(c.energyTimeline, EnergySample{T: now, J: j})
	}
	head := c.head()
	total := head.RemainingCC*1000/float64(c.cur) + head.RemainingMem
	if total <= 0 {
		return
	}
	alpha := float64(dt) / total
	if alpha > 1 {
		alpha = 1
	}
	dCC := head.RemainingCC * alpha
	dMem := head.RemainingMem * alpha
	head.RemainingCC -= dCC
	head.RemainingMem -= dMem
	head.ElapsedCC += dCC
	head.ElapsedMem += dMem
	c.pendCC -= dCC
	c.pendMem -= dMem
}

// View assembles the policy-visible snapshot of the core. The snapshot's
// Queue aliases the live part of the core's queue, which later decision
// points overwrite: a policy must read it synchronously inside
// OnEvent/OnTick and must not retain it past the call (race-instrumented
// builds hand out poisoned copies so `go test -race` catches violations;
// see view_race.go).
func (c *Core) View() View {
	v := View{
		Now:        c.eng.Now(),
		CurrentMHz: c.cur,
		TargetMHz:  c.target,
		Queue:      c.queueView(),
	}
	if c.QueueLen() > 0 {
		head := c.head()
		v.HeadElapsedCycles = head.ElapsedCC
		v.HeadElapsedMemNs = sim.Time(head.ElapsedMem)
	}
	return v
}

// decide asks the policy for a frequency and applies it.
func (c *Core) decide() {
	if c.policy == nil {
		return
	}
	v := c.View()
	f := c.grant(c.policy.OnEvent(v), v)
	c.retireView(v.Queue)
	c.ApplyFreq(f)
}

// grant passes a positive desire through the Grant hook, if one is set,
// while the View it was decided on is still live. Small enough to inline,
// so a core without the hook pays one nil check per decision.
func (c *Core) grant(f int, v View) int {
	if f > 0 && c.hooks.Grant != nil {
		return c.hooks.Grant(f, v)
	}
	return f
}

// ApplyFreq retargets the DVFS actuator. A transition takes
// TransitionLatency; while one is in flight, new decisions update the
// target and the in-flight transition applies the latest target when it
// completes (actuation lag; the core keeps running at the old frequency
// until then, which is how the paper models V/F switches). Exported for
// external allocators.
func (c *Core) ApplyFreq(fMHz int) {
	if fMHz <= 0 {
		return
	}
	step := c.cfg.Grid.Index(fMHz)
	if step < 0 {
		fMHz = c.cfg.Grid.ClampUp(float64(fMHz))
		step = c.cfg.Grid.Index(fMHz)
	}
	c.target, c.targetStep = fMHz, step
	if fMHz == c.cur {
		return
	}
	if c.cfg.TransitionLatency == 0 {
		c.setCur()
		c.rescheduleCompletion()
		return
	}
	if !c.eng.Scheduled(c.switchH) { // no transition in flight
		c.eng.RescheduleAfter(c.switchH, c.cfg.TransitionLatency)
	}
}

func (c *Core) switchEvent() {
	c.Accrue()
	if c.cur != c.target {
		c.setCur()
		c.rescheduleCompletion()
	}
}

// setCur switches execution to the target frequency: the meter charges
// its power from here on, and the timeline records the change.
func (c *Core) setCur() {
	c.cur = c.target
	c.meter.SetFreq(c.targetStep, c.cur)
	if c.cfg.RecordTimeline {
		c.freqTimeline = append(c.freqTimeline, FreqSample{T: c.eng.Now(), MHz: c.cur})
	}
}

// rescheduleCompletion re-projects the head's completion time at the
// current frequency, moving the pre-registered completion event (or
// parking it while the queue is empty). The engine relocates the event
// under the same handle: no closure, no allocation, no stale tombstone.
func (c *Core) rescheduleCompletion() {
	if c.QueueLen() == 0 {
		c.eng.Cancel(c.completionH)
		return
	}
	head := c.head()
	total := head.RemainingCC*1000/float64(c.cur) + head.RemainingMem
	c.eng.RescheduleAfter(c.completionH, sim.SpanNs(math.Ceil(total)))
}

func (c *Core) completionEvent() {
	c.Accrue()
	head := c.head()
	c.pendCC -= head.RemainingCC
	c.pendMem -= head.RemainingMem
	head.RemainingCC = 0
	head.RemainingMem = 0
	now := c.eng.Now()
	comp := Completion{
		ID:      head.Req.ID,
		Arrival: head.Req.Arrival,
		Start:   head.Start,
		Done:    now,
		// Measured work, as CPI-stack performance counters would report
		// it: elapsed memory time includes the wake penalty the request
		// actually paid, so profiling policies model it.
		ComputeCycles:     head.ElapsedCC,
		MemTime:           sim.Time(head.ElapsedMem),
		QueueLenAtArrival: head.QlenAtArrival,
	}
	c.served++
	if c.cfg.DropCompletions {
		c.respHist.Observe(comp.ResponseNs())
	} else {
		c.log.add(&comp)
	}
	c.qhead++
	if c.qhead == len(c.queue) {
		// A drained queue restarts at the front. Re-zero the pending-work
		// counters at every idle point so float rounding from incremental
		// updates cannot accumulate across busy periods.
		c.queue, c.qhead = c.queue[:0], 0
		c.pendCC, c.pendMem = 0, 0
	}
	if c.obs != nil {
		c.obs.ObserveCompletion(comp)
	}
	if c.feed != nil {
		c.feed.completed(now)
	}
	if c.QueueLen() > 0 {
		c.startService(c.head(), false)
		c.decide()
		c.rescheduleCompletion()
		return
	}
	if c.hooks.Idle != nil {
		c.hooks.Idle(now)
		return
	}
	c.decide()
	c.rescheduleCompletion()
}

func (c *Core) tickEvent(t Ticker) {
	c.Accrue()
	v := c.View()
	f := c.grant(t.OnTick(v), v)
	c.retireView(v.Queue)
	c.ApplyFreq(f)
	// Keep ticking only while there is work left to do; otherwise the
	// simulation would never drain.
	if c.feed.More() || c.QueueLen() > 0 {
		c.eng.RescheduleAfter(c.tickH, t.TickEvery())
	}
}

// QueueLen returns the number of requests in the system (head in service).
func (c *Core) QueueLen() int { return len(c.queue) - c.qhead }

// PendingWorkNs estimates the time to drain the queue at the current
// frequency: the remaining work of every queued request, from the
// incrementally maintained pending-work counters — O(1), so dispatchers
// can consult every core on every arrival without rescanning queues. Call
// Accrue first for an up-to-date value.
func (c *Core) PendingWorkNs() sim.Time {
	return sim.Time(c.pendCC*1000/float64(c.cur) + c.pendMem)
}

// CurrentMHz returns the frequency the core is executing at.
func (c *Core) CurrentMHz() int { return c.cur }

// Finalize accrues any trailing span, stops the race build's poisoner and
// assembles the core's Result. EndTime is the engine's current time. The
// Result's completion log is a view of the core's arena: the first
// Finalize among the cores sharing an arena seals it, after which none
// of them may record another completion.
func (c *Core) Finalize() Result {
	c.Accrue()
	c.closeViews()
	name := ""
	if c.policy != nil {
		name = c.policy.Name()
	}
	return Result{
		Policy:         name,
		Completions:    c.log.records(c.served),
		Served:         c.served,
		ResponseHist:   c.respHist,
		ActiveEnergyJ:  c.meter.ActiveEnergyJ(),
		IdleEnergyJ:    c.meter.IdleEnergyJ(),
		ActiveNs:       c.meter.ActiveNs(),
		IdleNs:         c.meter.IdleNs(),
		Residency:      c.meter.Residency(),
		EndTime:        c.eng.Now(),
		FreqTimeline:   c.freqTimeline,
		EnergyTimeline: c.energyTimeline,
	}
}

// Feeder streams a workload.Source into a core through one pre-registered
// arrival event: it holds a one-request lookahead, and each firing
// delivers the lookahead, pulls the next request and moves the same
// handle to its arrival — so the engine holds at most one pending
// arrival per feeder and steady-state feeding allocates nothing,
// regardless of whether the source is a materialized trace or a
// generator. It is the cores' one handle on their arrivals: they tick
// while it has More, and report completions back through it.
type Feeder struct {
	eng *sim.Engine
	src workload.Source
	// aware is src when it is completion-aware (closed-loop clients),
	// nil otherwise.
	aware workload.CompletionAware
	// deliver routes the arriving request (single core: Enqueue on the one
	// core; cluster: dispatch).
	deliver func(req workload.Request)

	pending workload.Request
	ok      bool

	h          sim.Handle
	registered bool
}

// NewSourceFeeder prepares a feeder pulling from a streaming source;
// Start schedules the first arrival.
func NewSourceFeeder(eng *sim.Engine, src workload.Source, deliver func(req workload.Request)) *Feeder {
	aware, _ := src.(workload.CompletionAware)
	return &Feeder{eng: eng, src: src, aware: aware, deliver: deliver}
}

// Start pulls the first request and schedules its arrival, if any.
func (f *Feeder) Start() {
	f.pending, f.ok = f.src.Next()
	if !f.ok {
		return
	}
	f.schedule()
}

// schedule (re)arms the arrival handle at the lookahead's arrival time.
func (f *Feeder) schedule() {
	if !f.registered {
		f.h = f.eng.Register(f.event)
		f.registered = true
	}
	f.eng.Reschedule(f.h, f.pending.Arrival)
}

// More reports whether an arrival may still come: the lookahead is
// pending, or a completion-aware source is not yet Exhausted — with
// requests in flight, a completion may spawn new arrivals, and periodic
// machinery (policy ticks) must stay alive for them.
func (f *Feeder) More() bool {
	return f.ok || (f.aware != nil && !f.aware.Exhausted())
}

func (f *Feeder) event() {
	req := f.pending
	f.pending, f.ok = f.src.Next()
	if f.ok {
		f.eng.Reschedule(f.h, f.pending.Arrival)
	}
	f.deliver(req)
}

// completed forwards a completion at done to a completion-aware source
// (a no-op for ordinary sources) and re-arms the arrival event, since
// the completion may have spawned an arrival earlier than the current
// lookahead: the lookahead is returned to the source and the earliest
// pending arrival re-pulled.
func (f *Feeder) completed(done sim.Time) {
	if f.aware == nil {
		return
	}
	f.aware.OnCompletion(done)
	if f.ok {
		f.aware.Requeue(f.pending)
	}
	f.pending, f.ok = f.src.Next()
	if f.ok {
		f.schedule()
	} else if f.registered {
		f.eng.Cancel(f.h)
	}
}
