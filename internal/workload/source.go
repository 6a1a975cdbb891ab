package workload

import (
	"math"
	"math/rand"

	"rubik/internal/sim"
)

// Source is a pull-based request stream: the streaming counterpart of a
// materialized Trace. Consumers (queueing.Feeder, which drives the single
// core, the cluster dispatcher and coloc cores) pull one request at a
// time, so a 10M-request run holds no []Request anywhere.
//
// Contract:
//   - Deterministic per construction parameters: two sources built with
//     the same arguments yield identical request sequences, and Reset
//     rewinds a source to exactly its initial sequence.
//   - Arrivals are non-decreasing.
//   - Next returns requests one at a time; ok=false means the stream is
//     exhausted (a later Next may return more only for completion-aware
//     sources, see CompletionAware).
//   - The returned Request is a value; sources retain nothing.
type Source interface {
	// Next returns the next request, or ok=false when exhausted.
	Next() (req Request, ok bool)
	// Len returns the number of requests remaining: never negative, and
	// exact except for a completion-aware source, whose count is an upper
	// bound that a live run (fed every completion) reaches. Consumers use
	// it only as a capacity hint.
	Len() int
	// Reset rewinds the source to the start of its sequence.
	Reset()
}

// CompletionAware is implemented by sources whose future arrivals depend
// on completions (closed-loop clients). The feeder notifies the source of
// every completion and, because it holds a one-request lookahead, returns
// that lookahead via Requeue before re-pulling, so a completion-spawned
// arrival that precedes the lookahead is delivered in order.
type CompletionAware interface {
	Source
	// OnCompletion tells the source a request finished at done.
	OnCompletion(done sim.Time)
	// Requeue gives an already-pulled request back to the source; a
	// subsequent Next must return it — or a deterministic regeneration
	// with the same ID and arrival (a modulating wrapper redraws its work
	// factor) — at its position in arrival order. Consumers may only
	// requeue the most recently pulled request (the feeder's one-deep
	// lookahead protocol); sources rely on that bound.
	Requeue(req Request)
	// Exhausted reports that no future Next can ever return a request,
	// regardless of completions still to come. A drained Next (ok=false)
	// alone does not imply it: with requests in flight, a completion may
	// spawn new arrivals. Consumers keep periodic machinery (policy
	// ticks) alive until Exhausted.
	Exhausted() bool
}

// arrivalsResetter is implemented by stateful arrival processes (MMPP);
// GenSource.Reset forwards to it.
type arrivalsResetter interface{ ResetProcess() }

// TraceSource streams a materialized request slice: the bridge that makes
// a Trace just one Source implementation, so every consumer has a single
// streaming ingest path.
type TraceSource struct {
	reqs []Request
	next int
}

// NewTraceSource streams tr's requests.
func NewTraceSource(tr Trace) *TraceSource { return &TraceSource{reqs: tr.Requests} }

// Next returns the next trace request.
func (s *TraceSource) Next() (Request, bool) {
	if s.next >= len(s.reqs) {
		return Request{}, false
	}
	r := s.reqs[s.next]
	s.next++
	return r, true
}

// Len returns the number of requests not yet pulled.
func (s *TraceSource) Len() int { return len(s.reqs) - s.next }

// Reset rewinds to the first request.
func (s *TraceSource) Reset() { s.next = 0 }

// GenSource generates requests on demand from an arrival process and an
// app's service model, drawing from one seeded rand; Generate is the same
// sequence materialized.
type GenSource struct {
	app      LCApp
	arrivals ArrivalProcess
	n        int
	seed     int64

	r      *rand.Rand
	issued int
	now    sim.Time
}

// NewGenSource streams n requests for app under the arrival process,
// deterministically per seed; n <= 0 streams nothing. Stateful arrival
// processes (e.g. *MMPP) must not be shared between live sources.
func NewGenSource(app LCApp, arrivals ArrivalProcess, n int, seed int64) *GenSource {
	s := &GenSource{app: app, arrivals: arrivals, n: max(n, 0), seed: seed}
	s.Reset()
	return s
}

// NewLoadSource streams n Poisson requests at a fraction of the app's
// nominal-frequency capacity — the streaming GenerateAtLoad.
func NewLoadSource(app LCApp, load float64, n int, seed int64) *GenSource {
	return NewGenSource(app, Poisson{RatePerSec: app.RateForLoad(load)}, n, seed)
}

// Next samples the next arrival gap and request work.
func (s *GenSource) Next() (Request, bool) {
	if s.issued >= s.n {
		return Request{}, false
	}
	s.now = sim.AddSpan(s.now, s.arrivals.NextGap(s.r, s.now))
	cc, mt := s.app.SampleRequest(s.r)
	req := Request{ID: s.issued, Arrival: s.now, ComputeCycles: cc, MemTime: mt}
	s.issued++
	return req, true
}

// Len returns the remaining request count.
func (s *GenSource) Len() int { return s.n - s.issued }

// Reset rewinds the generator (and a stateful arrival process) to the
// start of its deterministic sequence.
func (s *GenSource) Reset() {
	s.r = rand.New(rand.NewSource(s.seed))
	s.issued = 0
	s.now = 0
	if ar, ok := s.arrivals.(arrivalsResetter); ok {
		ar.ResetProcess()
	}
}

// Modulator scales per-request work multiplicatively, modeling
// service-time dynamics the stationary app models lack: correlated slow
// spells (cache/JIT/GC weather) and heavy-tailed stragglers. Modulators
// are stateful; Reset rewinds them.
type Modulator interface {
	// Factor returns the work multiplier for the next request.
	Factor(r *rand.Rand) float64
	// Reset rewinds the modulator's state.
	Reset()
}

// ARSlowdown is a lognormal AR(1) slowdown: the log-factor follows
// x' = Corr·x + sqrt(1-Corr²)·Sigma·N(0,1), so consecutive requests see
// correlated slowdowns with stationary log-stddev Sigma. The factor is
// mean-one (exp(x - Sigma²/2)).
type ARSlowdown struct {
	// Corr is the lag-1 autocorrelation of the log-slowdown (0..1).
	Corr float64
	// Sigma is the stationary standard deviation of the log-slowdown.
	Sigma float64

	x float64
}

// Factor advances the AR(1) state and returns the slowdown.
func (m *ARSlowdown) Factor(r *rand.Rand) float64 {
	m.x = m.Corr*m.x + math.Sqrt(1-m.Corr*m.Corr)*m.Sigma*r.NormFloat64()
	return math.Exp(m.x - m.Sigma*m.Sigma/2)
}

// Reset returns the state to the stationary mean.
func (m *ARSlowdown) Reset() { m.x = 0 }

// ParetoSlowdown makes a fraction of requests heavy-tailed stragglers:
// with probability Prob the request is slowed by Scale·Pareto(Alpha)
// (Pareto minimum 1), otherwise it runs unmodified. Alpha near 1 gives
// very heavy tails; larger Alpha tightens them.
type ParetoSlowdown struct {
	// Prob is the straggler probability per request.
	Prob float64
	// Scale is the minimum straggler slowdown.
	Scale float64
	// Alpha is the Pareto tail index (must be > 0).
	Alpha float64
	// Cap truncates the slowdown (0 = uncapped).
	Cap float64
}

// Factor returns 1 or a Pareto-distributed straggler slowdown.
func (m *ParetoSlowdown) Factor(r *rand.Rand) float64 {
	if r.Float64() >= m.Prob {
		return 1
	}
	u := r.Float64()
	if u <= 0 {
		u = math.SmallestNonzeroFloat64
	}
	f := m.Scale * math.Pow(u, -1/m.Alpha)
	if m.Cap > 0 && f > m.Cap {
		f = m.Cap
	}
	return f
}

// Reset is a no-op: the straggler draw is memoryless.
func (m *ParetoSlowdown) Reset() {}

// Modulated wraps an open-loop generator, scaling every request's
// compute and memory work by the modulator's factor. It draws from its
// own seeded rand, so the inner source's sequence is untouched and the
// composition stays deterministic.
type Modulated struct {
	src  *GenSource
	mod  Modulator
	seed int64
	r    *rand.Rand
}

// Modulate composes a slowdown process over an open-loop generator.
func Modulate(src *GenSource, mod Modulator, seed int64) *Modulated {
	return &Modulated{src: src, mod: mod, seed: seed, r: rand.New(rand.NewSource(seed))}
}

// Next pulls the inner request and scales its work.
func (m *Modulated) Next() (Request, bool) {
	req, ok := m.src.Next()
	if !ok {
		return Request{}, false
	}
	f := m.mod.Factor(m.r)
	req.ComputeCycles *= f
	if req.ComputeCycles < 1 {
		req.ComputeCycles = 1
	}
	req.MemTime = sim.Time(float64(req.MemTime) * f)
	return req, true
}

// Len returns the inner source's remaining count.
func (m *Modulated) Len() int { return m.src.Len() }

// Reset rewinds the inner source, the modulator and the factor stream.
func (m *Modulated) Reset() {
	m.src.Reset()
	m.mod.Reset()
	m.r = rand.New(rand.NewSource(m.seed))
}
