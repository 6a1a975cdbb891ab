//go:build !race

package queueing

// raceEnabled reports whether the race-detector view instrumentation is
// compiled in (see view_race.go).
const raceEnabled = false

// viewState is empty without the race detector.
type viewState struct{}

// queueView returns the live part of the core's arrival mirror, aliased
// so a steady-state View copies and allocates nothing. The View contract
// (read synchronously, do not retain) is what makes the aliasing safe;
// race-instrumented builds enforce it. The capacity is cut to the length
// so an append by the policy cannot write into the mirror.
func (c *Core) queueView() []QueuedRequest {
	return c.queued[c.qhead:len(c.queued):len(c.queued)]
}

// retireView marks the snapshot as dead after the policy call returns. A
// no-op without the race detector: the mirror simply moves on.
func (c *Core) retireView([]QueuedRequest) {}

// closeViews releases the race build's poisoner; a no-op here.
func (c *Core) closeViews() {}
