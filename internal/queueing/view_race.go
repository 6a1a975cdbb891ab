//go:build race

package queueing

// raceEnabled reports whether the race-detector view instrumentation is
// compiled in.
const raceEnabled = true

// Under the race detector every View gets a fresh copy of the queue
// instead of an alias of the core's arrival mirror, and retireView
// hands it to the core's poisoner goroutine once the policy call returns.
// A policy that held on to View.Queue and reads it after its
// OnEvent/OnTick call therefore races with the poisoner and `go test
// -race` reports it — turning a silent stale-aliasing bug into a build
// failure. Simulation results are unchanged: the fresh snapshot holds the
// same values the aliased mirror would.
//
// One long-lived poisoner per core, not a goroutine per decision: a race
// run retires a snapshot at every decision, and a goroutine apiece held
// gigabytes on million-request runs. Not one poisoner per process either:
// its channel would order every goroutine that retires Views after every
// other, hiding real races between goroutines that run different cores.

// poisonWindow sizes a poisoner's channel buffer. The channel is the only
// synchronization between the core and its poisoner, and a buffered
// channel orders a receive before the send poisonWindow sends later, so a
// stale read is reported while fewer than poisonWindow further snapshots
// of the same core have been retired. A retaining policy reads its stale
// snapshot at one of its next decisions, well inside that; a bigger
// buffer widens the window but lets more dead snapshots wait.
const poisonWindow = 1024

// viewState is a core's poisoner feed: nil until the core first retires a
// non-empty snapshot, and again after Finalize closes it. A core that is
// never finalized leaves its (idle) poisoner blocked; race builds only.
type viewState struct {
	poison chan []QueuedRequest
}

// queueView returns a fresh copy of the live part of the arrival mirror,
// for retireView to poison.
func (c *Core) queueView() []QueuedRequest {
	return append(make([]QueuedRequest, 0, len(c.queued)-c.qhead), c.queued[c.qhead:]...)
}

func (c *Core) retireView(q []QueuedRequest) {
	if len(q) == 0 {
		return
	}
	if c.views.poison == nil {
		c.views.poison = make(chan []QueuedRequest, poisonWindow)
		go poisonLoop(c.views.poison)
	}
	c.views.poison <- q
}

func poisonLoop(in <-chan []QueuedRequest) {
	for q := range in {
		for i := range q {
			q[i] = QueuedRequest{Arrival: -1 << 62}
		}
	}
}

// closeViews stops the core's poisoner.
func (c *Core) closeViews() {
	if c.views.poison != nil {
		close(c.views.poison)
		c.views.poison = nil
	}
}
