// Package queueing simulates a single latency-critical core: a FIFO request
// queue served by a DVFS-capable core, with a pluggable frequency policy
// invoked on every request arrival and completion — the control points the
// paper gives Rubik (Fig. 3: "Rubik adjusts core frequency on each request
// arrival and completion").
//
// The simulation is event-driven and deterministic. Work is split into
// compute cycles (scale with frequency) and memory-bound time (do not), and
// progress between events interleaves the two proportionally.
package queueing

import (
	"rubik/internal/sim"
)

// QueuedRequest is one entry of a core's queue: a request in the system.
// Policies see only its Arrival; the request itself and, for the head,
// its progress are the core's own state.
type QueuedRequest struct {
	// Arrival is when the request entered the system.
	Arrival sim.Time
	active  ActiveRequest
}

// View is the system state handed to a Policy at a decision point. Index 0
// of Queue is the request in service (if any).
//
// Queue aliases the live part of the core's queue, which later decision
// points overwrite: a policy must read it synchronously inside
// OnEvent/OnTick and must not retain it past the call. Race-instrumented
// builds (`go test -race`) poison retired snapshots from another
// goroutine, so a violation surfaces as a data race instead of silent
// stale data.
type View struct {
	// Now is the current simulated time.
	Now sim.Time
	// CurrentMHz is the frequency the core is executing at.
	CurrentMHz int
	// TargetMHz is the pending DVFS target (equals CurrentMHz if no
	// transition is in flight).
	TargetMHz int
	// Queue lists the requests in the system, head (in service) first.
	Queue []QueuedRequest
	// HeadElapsedCycles is the compute work already performed on the head
	// request — the paper's omega, measured by performance counters.
	HeadElapsedCycles float64
	// HeadElapsedMemNs is the memory-bound time already spent on the head.
	HeadElapsedMemNs sim.Time
}

// Policy chooses core frequencies. OnEvent fires after each arrival and
// each completion; the returned frequency must be a grid step (the server
// rounds up off-grid values); returning 0 or a negative value keeps the
// current setting. OnEvent must consume the View synchronously (see View).
type Policy interface {
	// Name identifies the policy in results and reports.
	Name() string
	// OnEvent returns the desired frequency in MHz.
	OnEvent(v View) int
}

// Ticker is implemented by policies that need periodic work in addition to
// event-driven decisions — Rubik refreshes its target tail tables every
// 100 ms and runs feedback on the same cadence.
type Ticker interface {
	// TickEvery returns the tick period.
	TickEvery() sim.Time
	// OnTick may return a new frequency (same semantics as OnEvent).
	OnTick(v View) int
}

// CompletionObserver is implemented by policies that learn from served
// requests (Rubik profiles per-request compute cycles and memory time).
type CompletionObserver interface {
	// ObserveCompletion is called after each request completes.
	ObserveCompletion(c Completion)
}

// SlackReporter is implemented by policies that can predict how much tail
// headroom the core has at a decision point. Power-budget coordinators use
// it to decide which cores donate frequency first when a shared cap binds:
// a core with slack can run slower without missing its bound. Like
// OnEvent, PredictedSlackNs must consume the View synchronously and must
// not mutate policy state.
type SlackReporter interface {
	// PredictedSlackNs returns the predicted tail slack in nanoseconds at
	// the current operating point (>= 0; 0 = no headroom or unknown).
	PredictedSlackNs(v View) float64
}

// FixedPolicy always requests the same frequency; it is the paper's
// Fixed-frequency baseline.
type FixedPolicy struct {
	MHz int
}

// Name implements Policy.
func (p FixedPolicy) Name() string { return "fixed" }

// OnEvent implements Policy.
func (p FixedPolicy) OnEvent(View) int { return p.MHz }
