package main

import (
	"sort"
	"sync/atomic"
	"time"

	"rubik/internal/capping"
	"rubik/internal/cluster"
	rubikcore "rubik/internal/core"
	"rubik/internal/queueing"
	"rubik/internal/sim"
	"rubik/internal/workload"
)

// Layers are timed from outside: the tracer wraps each interface the fleet
// calls (source, dispatcher, policy, allocators) and times the call into
// the wrapped value. No wrapped call runs inside another, so a span's
// duration is its layer's self time, and the traced wall-clock minus every
// span is the residual: event engine, queueing core, feeder, capping glue
// and barriers.
//
// A timed span costs two clock reads, and the stream workload makes four
// hot calls per request: timing every call roughly doubled its wall-clock,
// one call in 16 still added ~15-20% and one in 64 up to ~10%. So hot
// spans are sampled: every sampleEvery-th call of a layer on a socket is
// timed and the sampled time is scaled by calls/sampled, which keeps the
// overhead within host noise. Call counts stay exact. Rare spans (table
// refresh ticks, tree rounds, pooled aggregation) are timed on every call.
const sampleEvery = 256

// layer accumulates one socket's calls into one layer. A socket is
// simulated by one goroutine at a time (shards hand sockets over only at
// barriers), so the counters need no synchronization.
type layer struct {
	calls, sampled, ns int64
}

// sample counts a call and reports whether to time it.
func (l *layer) sample() bool {
	l.calls++
	return l.calls%sampleEvery == 0
}

// timed records the duration of a span that started at t0.
func (l *layer) timed(t0 time.Time) {
	l.sampled++
	l.ns += int64(time.Since(t0))
}

func (l *layer) add(o layer) {
	l.calls += o.calls
	l.sampled += o.sampled
	l.ns += o.ns
}

// sharedLayer is a layer whose wrapped value serves every socket at once:
// the fleet passes one allocator value to all of its sockets.
type sharedLayer struct {
	calls, sampled, ns atomic.Int64
}

func (l *sharedLayer) sample() bool { return l.calls.Add(1)%sampleEvery == 0 }

func (l *sharedLayer) timed(t0 time.Time) {
	l.sampled.Add(1)
	l.ns.Add(int64(time.Since(t0)))
}

func (l *sharedLayer) load() layer {
	return layer{calls: l.calls.Load(), sampled: l.sampled.Load(), ns: l.ns.Load()}
}

// socketLayers are the per-socket accumulators.
type socketLayers struct {
	next, pick, onEvent, observe, slack, onTick layer
}

// tracer owns the accumulators of one traced fleet run.
type tracer struct {
	sockets    []socketLayers
	rubiks     [][]*rubikcore.Rubik
	allocate   sharedLayer
	levelAlloc sharedLayer
	agg        layer
}

func newTracer(sockets, cores int) *tracer {
	t := &tracer{
		sockets: make([]socketLayers, sockets),
		rubiks:  make([][]*rubikcore.Rubik, sockets),
	}
	for s := range t.rubiks {
		t.rubiks[s] = make([]*rubikcore.Rubik, cores)
	}
	return t
}

// The wrap methods return their argument unchanged on a nil tracer, so
// workloadSpec.fleet serves both the plain and the traced run.

func (t *tracer) source(s int, src workload.Source) workload.Source {
	if t == nil {
		return src
	}
	return &tracedSource{src: src, l: &t.sockets[s].next}
}

func (t *tracer) dispatcher(s int, d cluster.Dispatcher) cluster.Dispatcher {
	if t == nil {
		return d
	}
	return &tracedDispatcher{d: d, l: &t.sockets[s].pick}
}

func (t *tracer) fixed(s int, p queueing.FixedPolicy) queueing.Policy {
	if t == nil {
		return p
	}
	return &tracedFixed{p: p, l: &t.sockets[s].onEvent}
}

func (t *tracer) rubik(s, c int, r *rubikcore.Rubik) queueing.Policy {
	if t == nil {
		return r
	}
	t.rubiks[s][c] = r
	return &tracedRubik{r: r, l: &t.sockets[s]}
}

func (t *tracer) allocator(a capping.Allocator) capping.Allocator {
	if t == nil {
		return a
	}
	return &tracedAllocator{a: a, l: &t.allocate}
}

func (t *tracer) level(a capping.LevelAllocator) capping.LevelAllocator {
	if t == nil {
		return a
	}
	return &tracedLevel{a: a, l: &t.levelAlloc}
}

type tracedSource struct {
	src workload.Source
	l   *layer
}

func (s *tracedSource) Next() (workload.Request, bool) {
	if !s.l.sample() {
		return s.src.Next()
	}
	t0 := time.Now()
	req, ok := s.src.Next()
	s.l.timed(t0)
	return req, ok
}

func (s *tracedSource) Len() int { return s.src.Len() }
func (s *tracedSource) Reset()   { s.src.Reset() }

type tracedDispatcher struct {
	d cluster.Dispatcher
	l *layer
}

func (d *tracedDispatcher) Name() string { return d.d.Name() }
func (d *tracedDispatcher) Reset()       { d.d.Reset() }

func (d *tracedDispatcher) Pick(req workload.Request, cores []cluster.CoreState) int {
	if !d.l.sample() {
		return d.d.Pick(req, cores)
	}
	t0 := time.Now()
	i := d.d.Pick(req, cores)
	d.l.timed(t0)
	return i
}

type tracedFixed struct {
	p queueing.FixedPolicy
	l *layer
}

func (p *tracedFixed) Name() string { return p.p.Name() }

func (p *tracedFixed) OnEvent(v queueing.View) int {
	if !p.l.sample() {
		return p.p.OnEvent(v)
	}
	t0 := time.Now()
	f := p.p.OnEvent(v)
	p.l.timed(t0)
	return f
}

// tracedRubik forwards every optional interface the fleet probes for, so
// the cluster and capping layers treat it exactly like the bare
// controller.
type tracedRubik struct {
	r *rubikcore.Rubik
	l *socketLayers
}

var (
	_ queueing.Policy             = (*tracedRubik)(nil)
	_ queueing.Ticker             = (*tracedRubik)(nil)
	_ queueing.CompletionObserver = (*tracedRubik)(nil)
	_ queueing.SlackReporter      = (*tracedRubik)(nil)
	_ cluster.TableCacheUser      = (*tracedRubik)(nil)
)

func (p *tracedRubik) Name() string                          { return p.r.Name() }
func (p *tracedRubik) TickEvery() sim.Time                   { return p.r.TickEvery() }
func (p *tracedRubik) SetTableCache(c *rubikcore.TableCache) { p.r.SetTableCache(c) }

func (p *tracedRubik) OnEvent(v queueing.View) int {
	if !p.l.onEvent.sample() {
		return p.r.OnEvent(v)
	}
	t0 := time.Now()
	f := p.r.OnEvent(v)
	p.l.onEvent.timed(t0)
	return f
}

func (p *tracedRubik) OnTick(v queueing.View) int {
	p.l.onTick.calls++
	t0 := time.Now()
	f := p.r.OnTick(v)
	p.l.onTick.timed(t0)
	return f
}

func (p *tracedRubik) ObserveCompletion(c queueing.Completion) {
	if !p.l.observe.sample() {
		p.r.ObserveCompletion(c)
		return
	}
	t0 := time.Now()
	p.r.ObserveCompletion(c)
	p.l.observe.timed(t0)
}

func (p *tracedRubik) PredictedSlackNs(v queueing.View) float64 {
	if !p.l.slack.sample() {
		return p.r.PredictedSlackNs(v)
	}
	t0 := time.Now()
	s := p.r.PredictedSlackNs(v)
	p.l.slack.timed(t0)
	return s
}

type tracedAllocator struct {
	a capping.Allocator
	l *sharedLayer
}

func (a *tracedAllocator) Name() string { return a.a.Name() }

func (a *tracedAllocator) Allocate(d *capping.Domain, demands []capping.Demand, grants []int) {
	if !a.l.sample() {
		a.a.Allocate(d, demands, grants)
		return
	}
	t0 := time.Now()
	a.a.Allocate(d, demands, grants)
	a.l.timed(t0)
}

type tracedLevel struct {
	a capping.LevelAllocator
	l *sharedLayer
}

func (a *tracedLevel) Name() string { return a.a.Name() }

func (a *tracedLevel) AllocateLevel(budgetW float64, children []capping.ChildDemand, grants []float64) {
	a.l.calls.Add(1)
	t0 := time.Now()
	a.a.AllocateLevel(budgetW, children, grants)
	a.l.timed(t0)
}

// selfNs estimates a layer's total self time: the sampled span time, less
// the clock's own cost per timed span, scaled to every call.
func (l layer) selfNs(clockNs float64) float64 {
	if l.sampled == 0 {
		return 0
	}
	ns := float64(l.ns) - float64(l.sampled)*clockNs
	if ns < 0 {
		ns = 0
	}
	return ns * float64(l.calls) / float64(l.sampled)
}

// layerTotals sums the per-socket accumulators.
func (t *tracer) layerTotals() socketLayers {
	var sum socketLayers
	for _, s := range t.sockets {
		sum.next.add(s.next)
		sum.pick.add(s.pick)
		sum.onEvent.add(s.onEvent)
		sum.observe.add(s.observe)
		sum.slack.add(s.slack)
		sum.onTick.add(s.onTick)
	}
	return sum
}

// calibrateClock measures what an empty span reads: the clock cost every
// timed span carries on top of the call it brackets. It returns the median
// over several batches, in nanoseconds.
func calibrateClock() float64 {
	const batches, perBatch = 9, 1 << 14
	est := make([]float64, batches)
	for b := range est {
		var total time.Duration
		for i := 0; i < perBatch; i++ {
			t0 := time.Now()
			total += time.Since(t0)
		}
		est[b] = float64(total) / perBatch
	}
	sort.Float64s(est)
	return est[batches/2]
}
