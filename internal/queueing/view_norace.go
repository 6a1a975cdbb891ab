//go:build !race

package queueing

// raceEnabled reports whether the race-detector view instrumentation is
// compiled in (see view_race.go).
const raceEnabled = false

// viewState holds the policy-visible queue snapshot reused across
// decision points.
type viewState struct {
	buf []QueuedRequest
}

// snapshotBuf returns the core-owned snapshot buffer, reused across
// decision points so a steady-state View performs zero allocations. The
// View contract (read synchronously, do not retain) is what makes the
// reuse safe; race-instrumented builds enforce it.
func (c *Core) snapshotBuf(n int) []QueuedRequest {
	if cap(c.views.buf) < n {
		c.views.buf = make([]QueuedRequest, n)
	}
	return c.views.buf[:n]
}

// retireView marks the snapshot as dead after the policy call returns. A
// no-op without the race detector: the buffer is simply overwritten by the
// next View.
func (c *Core) retireView([]QueuedRequest) {}

// closeViews releases the race build's poisoner; a no-op here.
func (c *Core) closeViews() {}
