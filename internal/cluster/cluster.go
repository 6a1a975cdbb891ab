// Package cluster simulates a multi-core server on one shared
// discrete-event engine: N instances of the single-core run loop
// (queueing.Core), each under its own frequency policy, behind a pluggable
// request dispatcher. It is the substrate for the paper's 6-core CMP
// evaluated as a whole server rather than by per-core extrapolation, and
// scales to any core count.
//
// Determinism: the engine fires equal-timestamp events in scheduling
// order, every dispatcher is deterministic given its construction
// parameters (Run resets it before replaying), and each core's policy is
// built fresh by the config's NewPolicy factory — so two runs of the same
// trace under the same config produce identical Results.
package cluster

import (
	"fmt"

	"rubik/internal/capping"
	rubikcore "rubik/internal/core"
	"rubik/internal/queueing"
	"rubik/internal/sim"
	"rubik/internal/stats"
	"rubik/internal/workload"
)

// Config parameterizes a simulated multi-core server.
type Config struct {
	// Cores is the number of cores (paper CMP: 6).
	Cores int
	// Dispatcher routes arriving requests (default: round-robin).
	Dispatcher Dispatcher
	// Core parameterizes every core (grid, power model, DVFS latency...).
	Core queueing.Config
	// NewPolicy builds the frequency policy for core i. Policies are
	// stateful (Rubik profiles online), so every core needs a fresh one.
	NewPolicy func(core int) (queueing.Policy, error)

	// CapW, when > 0, runs the cluster under one shared power budget: the
	// socket is one power domain spanning every core, whose per-core
	// frequency choices are filtered through Allocator so that the sum
	// of granted active powers stays within CapW (see internal/capping).
	// 0 (the default) is completely uncapped — the run is byte-identical
	// to a config without the capping fields. +Inf never binds; a
	// negative or NaN cap is an error.
	CapW float64
	// Allocator is the budget strategy (default: capping.Waterfill).
	Allocator capping.Allocator

	// TableCache, when non-nil, is offered to every policy that
	// implements TableCacheUser (core.Rubik does): their periodic tail-
	// table rebuilds are then memoized content-addressed by the exact
	// rebuild inputs, so byte-identical profiles rebuild once and share.
	// Results are unchanged — a verified cache hit is bitwise-identical
	// to rebuilding — so this is purely a throughput knob. Nil (the
	// default, and the single-core path's default throughout) leaves
	// every policy rebuilding privately. The cache is goroutine-confined:
	// share one only across clusters simulated on the same goroutine
	// (a flat RunFleet hands every socket of a shard the same cache).
	TableCache *rubikcore.TableCache
}

// TableCacheUser is implemented by policies whose periodic model refresh
// can share a content-addressed rebuild cache (core.Rubik). buildCores
// attaches Config.TableCache to every policy that implements it.
type TableCacheUser interface {
	SetTableCache(*rubikcore.TableCache)
}

// DefaultConfig returns a 6-core server with round-robin dispatch and
// fixed-nominal cores, matching the paper's CMP (Table 2).
func DefaultConfig() Config {
	return Config{
		Cores:      6,
		Dispatcher: NewRoundRobin(),
		Core:       queueing.DefaultConfig(),
		NewPolicy: func(int) (queueing.Policy, error) {
			return queueing.FixedPolicy{MHz: queueing.DefaultConfig().InitialMHz}, nil
		},
	}
}

// Result is the outcome of simulating one trace on a cluster.
type Result struct {
	// Dispatcher is the dispatch discipline's name.
	Dispatcher string
	// PerCore holds each core's single-core Result (completions in that
	// core's service order).
	PerCore []queueing.Result
	// Routed[i] counts the requests dispatched to core i.
	Routed []int
	// EndTime is when the last event fired (all cores share the engine).
	EndTime sim.Time
	// Capping is the socket's one power domain's budget accounting. Nil
	// when the run was uncapped (Config.CapW 0).
	Capping *capping.DomainStats
}

// TailNs pools post-warmup responses across cores and returns the
// q-quantile (warmup is trimmed per core, as in the paper's steady-state
// methodology). When the cores streamed their completion logs out
// (queueing.Config.DropCompletions) it merges the per-core response
// histograms instead; the streamed estimate covers the whole run.
func (r Result) TailNs(q, warmupFrac float64) float64 {
	return pooledTailNs([]Result{r}, q, warmupFrac)
}

// pooledTailNs is the pooled tail behind Result.TailNs and
// FleetResult.TailNs: queueing.PooledTailNs over every core's completion
// log, which selects the nearest-rank quantile straight from the logs
// without pooling them. With no post-warmup logged completions it merges
// the streamed per-core response histograms.
func pooledTailNs(sockets []Result, q, warmupFrac float64) float64 {
	var logs [][]queueing.Completion
	for _, s := range sockets {
		for _, c := range s.PerCore {
			if len(queueing.TrimWarmup(c.Completions, warmupFrac)) > 0 {
				logs = append(logs, c.Completions)
			}
		}
	}
	if len(logs) > 0 {
		return queueing.PooledTailNs(logs, q, warmupFrac)
	}
	var merged *stats.LogHistogram
	for _, s := range sockets {
		for _, c := range s.PerCore {
			if c.ResponseHist == nil {
				continue
			}
			if merged == nil {
				merged = stats.NewResponseHistogram()
			}
			if err := merged.Merge(c.ResponseHist); err != nil {
				// All cores use the shared response geometry; a mismatch
				// means a hand-built Result, for which there is no pooled
				// tail.
				return 0
			}
		}
	}
	if merged == nil {
		return 0
	}
	return merged.Quantile(q)
}

// ActiveEnergyJ sums active core energy across cores.
func (r Result) ActiveEnergyJ() float64 {
	var e float64
	for _, c := range r.PerCore {
		e += c.ActiveEnergyJ
	}
	return e
}

// TotalEnergyJ sums active plus idle energy across cores.
func (r Result) TotalEnergyJ() float64 {
	var e float64
	for _, c := range r.PerCore {
		e += c.ActiveEnergyJ + c.IdleEnergyJ
	}
	return e
}

// Served counts completed requests across cores (even when the per-core
// completion logs were streamed out).
func (r Result) Served() int {
	var n int
	for _, c := range r.PerCore {
		if c.Served > 0 {
			n += c.Served
		} else {
			n += len(c.Completions)
		}
	}
	return n
}

// EnergyPerRequestJ is pooled active energy per completed request.
func (r Result) EnergyPerRequestJ() float64 {
	n := r.Served()
	if n == 0 {
		return 0
	}
	return r.ActiveEnergyJ() / float64(n)
}

// MeanBusyCores is the average number of simultaneously busy cores (the
// uncore activity driver in the system power model).
func (r Result) MeanBusyCores() float64 {
	if r.EndTime == 0 {
		return 0
	}
	var busy float64
	for _, c := range r.PerCore {
		busy += float64(c.ActiveNs)
	}
	return busy / float64(r.EndTime)
}

// Run simulates the trace on a cluster. A materialized trace is just one
// Source: Run is RunSource over the trace's stream.
func Run(tr workload.Trace, cfg Config) (Result, error) {
	return RunSource(workload.NewTraceSource(tr), cfg)
}

// buildCores validates the config and assembles the per-core simulators,
// recording into log, returning each core's policy alongside it.
func buildCores(eng *sim.Engine, cfg Config, log *queueing.Arena) ([]*queueing.Core, []queueing.Policy, error) {
	if cfg.Cores <= 0 {
		return nil, nil, fmt.Errorf("cluster: need at least 1 core, got %d", cfg.Cores)
	}
	if cfg.NewPolicy == nil {
		return nil, nil, fmt.Errorf("cluster: nil NewPolicy factory")
	}
	cores := make([]*queueing.Core, cfg.Cores)
	policies := make([]queueing.Policy, cfg.Cores)
	for i := range cores {
		p, err := cfg.NewPolicy(i)
		if err != nil {
			return nil, nil, fmt.Errorf("cluster: building policy for core %d: %w", i, err)
		}
		if p == nil {
			return nil, nil, fmt.Errorf("cluster: policy factory returned a nil policy for core %d", i)
		}
		if cfg.TableCache != nil {
			if u, ok := p.(TableCacheUser); ok {
				u.SetTableCache(cfg.TableCache)
			}
		}
		c, err := queueing.NewCore(eng, p, cfg.Core, log)
		if err != nil {
			return nil, nil, err
		}
		cores[i], policies[i] = c, p
	}
	return cores, policies, nil
}

// finalize assembles the per-core results and the capping accounting.
func finalize(eng *sim.Engine, cores []*queueing.Core, dispatcher string, routed []int, capped *domainCtl) Result {
	res := Result{
		Dispatcher: dispatcher,
		PerCore:    make([]queueing.Result, len(cores)),
		Routed:     routed,
		EndTime:    eng.Now(),
		Capping:    capped.finalize(),
	}
	for i, c := range cores {
		res.PerCore[i] = c.Finalize()
	}
	return res
}

// socketSim is one cluster simulation split into (setup, advance,
// result): exactly RunSource's body, but resumable, so RunFleet can
// advance every socket phase by phase. RunSource composes the three
// pieces in one shot, which keeps the split from ever drifting from the
// single-shot path.
type socketSim struct {
	eng     *sim.Engine
	cfg     Config
	cores   []*queueing.Core
	capped  *domainCtl
	routed  []int
	pickErr error
	drained bool

	// capEv applies capW, the cap the last barrier armed. The first
	// scheduleCap registers it (capRegistered), so flat runs never do.
	capEv         sim.Handle
	capW          float64
	capRegistered bool
}

// newSocketSim validates the config, assembles cores, capping, dispatch
// and the source feeder, and leaves the engine primed at t=0.
func newSocketSim(src workload.Source, cfg Config) (*socketSim, error) {
	if cfg.Dispatcher == nil {
		cfg.Dispatcher = NewRoundRobin()
	}
	cfg.Dispatcher.Reset()

	eng := sim.NewEngine()
	capped, err := wireCapping(eng, cfg)
	if err != nil {
		return nil, err
	}
	// One completion arena for the socket, sized by the stream: dispatch
	// may split it however it likes without regrowing any core's log.
	var log *queueing.Arena
	if !cfg.Core.DropCompletions {
		log = queueing.NewArena(src.Len(), cfg.Cores)
	}
	cores, policies, err := buildCores(eng, cfg, log)
	if err != nil {
		return nil, err
	}
	capped.attach(cores)

	s := &socketSim{
		eng:    eng,
		cfg:    cfg,
		cores:  cores,
		capped: capped,
		routed: make([]int, cfg.Cores),
	}
	states := make([]CoreState, cfg.Cores)
	feed := queueing.NewSourceFeeder(eng, src, func(req workload.Request) {
		// O(cores) per arrival: Accrue is O(1) (head progress only) and the
		// queue-length/pending-work counters are maintained incrementally
		// by each Core, so no core's queue is rescanned here.
		for i, c := range cores {
			c.Accrue()
			states[i] = CoreState{
				Index:         i,
				QueueLen:      c.QueueLen(),
				PendingWorkNs: c.PendingWorkNs(),
				CurrentMHz:    c.CurrentMHz(),
			}
		}
		i := cfg.Dispatcher.Pick(req, states)
		if i < 0 || i >= len(cores) {
			// A broken dispatcher must surface, not silently skew results;
			// route to core 0 so the simulation still drains, and fail the
			// run afterwards.
			if s.pickErr == nil {
				s.pickErr = fmt.Errorf("cluster: dispatcher %s picked core %d of %d for request %d",
					cfg.Dispatcher.Name(), i, len(cores), req.ID)
			}
			i = 0
		}
		s.routed[i]++
		cores[i].Enqueue(req)
	})
	if capped != nil {
		for i, c := range cores {
			slack, _ := policies[i].(queueing.SlackReporter)
			c.SetHooks(queueing.Hooks{Grant: func(desired int, v queueing.View) int {
				return capped.decide(i, desired, slack, v)
			}})
		}
	}
	feed.Start()
	for _, c := range cores {
		c.Start(feed)
	}
	return s, nil
}

// advanceTo fires every event due by t without moving the clock past the
// last one, and reports whether the simulation drained. Barriers that
// fire nothing leave no trace (sim.Engine.RunEventsUntil), so a segmented
// run observes exactly the clocks of an unsegmented one.
func (s *socketSim) advanceTo(t sim.Time) bool {
	if !s.drained {
		s.drained = s.eng.RunEventsUntil(t)
	}
	return s.drained
}

// result assembles the Result once advancing is done.
func (s *socketSim) result() (Result, error) {
	if s.pickErr != nil {
		return Result{}, s.pickErr
	}
	return finalize(s.eng, s.cores, s.cfg.Dispatcher.Name(), s.routed, s.capped), nil
}

// RunSource simulates a streaming request source on a cluster: one shared
// engine, Cores cores each under a fresh policy, with the dispatcher
// routing every arrival pulled from the source. The dispatcher sees exact
// queue state: all cores are accrued to the arrival instant before it
// picks. Nothing materializes the stream, so a 10M-request scenario run
// needs memory for the queue depths, not the request count (pair with
// Core.DropCompletions). Completion-aware sources (closed-loop clients)
// receive every core's completions through the feeder.
func RunSource(src workload.Source, cfg Config) (Result, error) {
	s, err := newSocketSim(src, cfg)
	if err != nil {
		return Result{}, err
	}
	s.eng.Run()
	return s.result()
}
