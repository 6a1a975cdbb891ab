package workload

import (
	"math/rand"

	"rubik/internal/sim"
)

// ClosedLoop configures a closed-loop client population: Clients users
// that each issue one request, wait for its completion, think for an
// exponential time, and issue the next. Unlike the open (Poisson) model,
// offered load falls when the server slows down — the self-throttling
// behavior of interactive sessions — so tail/energy trade-offs look very
// different from open-loop replays of the same mean rate.
type ClosedLoop struct {
	// App supplies per-request work.
	App LCApp
	// Clients is the concurrent user population.
	Clients int
	// MeanThink is the mean exponential think time between a client's
	// completion and its next request.
	MeanThink sim.Time
	// N caps total requests issued (<= 0: none).
	N int
	// Seed makes the stream deterministic.
	Seed int64
}

// NewSource builds the streaming closed-loop source. It implements
// CompletionAware: the simulation feeder must forward completions (every
// runner's does: single core, cluster and colocated core) — without them
// each client issues exactly one request.
func (c ClosedLoop) NewSource() *ClosedLoopSource {
	s := &ClosedLoopSource{cfg: c}
	s.Reset()
	return s
}

// ClosedLoopSource streams a ClosedLoop population. Pending arrivals live
// in a small min-heap ordered by (arrival, id): one entry per waiting
// client, so memory is O(Clients) regardless of run length. Work is
// sampled when an arrival is spawned; IDs are assigned in spawn order.
type ClosedLoopSource struct {
	cfg ClosedLoop

	r       *rand.Rand
	heap    []Request // min-heap by (Arrival, ID)
	spawned int
	pulled  int
}

// Next pops the earliest pending arrival.
func (s *ClosedLoopSource) Next() (Request, bool) {
	if len(s.heap) == 0 {
		return Request{}, false
	}
	req := s.heap[0]
	last := len(s.heap) - 1
	s.heap[0] = s.heap[last]
	s.heap = s.heap[:last]
	s.siftDown(0)
	s.pulled++
	return req, true
}

// Len returns the requests still to come: the pending arrivals plus
// those the N cap still lets completions spawn. Exact when a live run
// feeds back every completion; an upper bound otherwise (an export
// yields only the pending ones).
func (s *ClosedLoopSource) Len() int { return max(s.cfg.N, 0) - s.spawned + len(s.heap) }

// Reset rewinds to the initial client population: each client's first
// request arrives after one think time from t=0.
func (s *ClosedLoopSource) Reset() {
	s.r = rand.New(rand.NewSource(s.cfg.Seed))
	s.heap = s.heap[:0]
	s.spawned = 0
	s.pulled = 0
	for i := 0; i < s.cfg.Clients; i++ {
		s.spawn(0)
	}
}

// OnCompletion spawns the completing client's next request at
// done + think. The total-request cap N stops the population.
func (s *ClosedLoopSource) OnCompletion(done sim.Time) {
	if s.pulled > 0 {
		s.pulled-- // the completed request left the in-flight set
	}
	s.spawn(done)
}

// Requeue returns a pulled-but-undelivered request to the heap (the
// feeder's lookahead, displaced by a completion-spawned earlier arrival).
func (s *ClosedLoopSource) Requeue(req Request) {
	s.pulled--
	s.push(req)
}

// Exhausted reports that no future Next can ever return a request: the
// heap is empty and either the spawn cap is reached or nothing is in
// flight whose completion could spawn more (InFlight == 0).
func (s *ClosedLoopSource) Exhausted() bool {
	if len(s.heap) > 0 {
		return false
	}
	if s.spawned >= s.cfg.N {
		return true
	}
	return s.pulled == 0
}

// spawn samples one client request arriving think-time after from.
func (s *ClosedLoopSource) spawn(from sim.Time) {
	if s.spawned >= s.cfg.N {
		return
	}
	think := sim.Time(s.r.ExpFloat64() * float64(s.cfg.MeanThink))
	if think < 1 {
		think = 1
	}
	cc, mt := s.cfg.App.SampleRequest(s.r)
	s.push(Request{ID: s.spawned, Arrival: from + think, ComputeCycles: cc, MemTime: mt})
	s.spawned++
}

// before orders heap entries by (Arrival, ID).
func (s *ClosedLoopSource) before(a, b Request) bool {
	return a.Arrival < b.Arrival || (a.Arrival == b.Arrival && a.ID < b.ID)
}

func (s *ClosedLoopSource) push(req Request) {
	s.heap = append(s.heap, req)
	i := len(s.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !s.before(s.heap[i], s.heap[parent]) {
			break
		}
		s.heap[i], s.heap[parent] = s.heap[parent], s.heap[i]
		i = parent
	}
}

func (s *ClosedLoopSource) siftDown(i int) {
	for {
		left, right := 2*i+1, 2*i+2
		smallest := i
		if left < len(s.heap) && s.before(s.heap[left], s.heap[smallest]) {
			smallest = left
		}
		if right < len(s.heap) && s.before(s.heap[right], s.heap[smallest]) {
			smallest = right
		}
		if smallest == i {
			return
		}
		s.heap[i], s.heap[smallest] = s.heap[smallest], s.heap[i]
		i = smallest
	}
}
