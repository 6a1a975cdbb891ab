package cluster

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"

	"rubik/internal/capping"
	rubikcore "rubik/internal/core"
	"rubik/internal/queueing"
	"rubik/internal/sim"
	"rubik/internal/workload"
)

// DefaultTableCacheEntries is the rebuild-cache bound RunFleet uses when
// FleetConfig.TableCacheEntries is 0: enough for every core of a socket
// to keep a few live profile windows resident (~5 KB per entry at paper
// table dimensions), small enough that a thousand-socket fleet's shards
// stay well under a megabyte each.
const DefaultTableCacheEntries = 64

// FleetConfig describes a fleet: Sockets independent core groups, each a
// CoresPerSocket-core cluster with its own request source, dispatcher and
// (optionally) power-capping domain, simulated across Shards parallel
// event loops.
//
// Sockets are shared-nothing by construction — no source, dispatcher,
// policy, allocator scratch or engine is shared between them — which is
// what makes the parallelism exact rather than approximate: the fleet
// result is invariant to the shard count, and RunFleet with Shards=1 is
// byte-identical to simulating the sockets one after another. Dispatch is
// socket-local (partitioned-queue semantics): a JSQ or least-work
// dispatcher compares only the queues of its own socket's cores. A
// fleet-global JSQ would need every core's queue length at every arrival,
// which is precisely the cross-shard synchronization sharding removes; see
// DESIGN.md §10 for the argument.
type FleetConfig struct {
	// Sockets is the number of independent core groups.
	Sockets int
	// CoresPerSocket is the core count of each group (paper CMP: 6).
	CoresPerSocket int
	// Shards is the number of parallel simulation goroutines the sockets
	// are packed onto. 0 means GOMAXPROCS; any value is clamped to
	// [1, Sockets]. The shard count is a throughput knob only — results
	// are identical at every value.
	Shards int
	// NewSource builds socket s's request stream. Sources must not be
	// shared between sockets (they are stateful); derive per-socket seeds
	// with workload.ShardSeed so the fleet is deterministic per fleet
	// seed. Called from shard goroutines: the factory must be safe for
	// concurrent calls (building independent sources concurrently is safe
	// for every source in this repo).
	NewSource func(socket int) workload.Source
	// NewDispatcher builds socket s's dispatcher (nil: round-robin per
	// socket). Dispatchers are stateful, so every socket needs a fresh
	// one; seed Random dispatchers per socket via workload.ShardSeed.
	NewDispatcher func(socket int) Dispatcher
	// Core parameterizes every core in the fleet.
	Core queueing.Config
	// NewPolicy builds the frequency policy for (socket, core). Like
	// NewSource it is called from shard goroutines and must be safe for
	// concurrent calls.
	NewPolicy func(socket, core int) (queueing.Policy, error)

	// CapW, when > 0, budgets every socket at CapW watts: each socket is
	// one power domain spanning its cores, reconciled by Allocator
	// (socket-local, like dispatch — see internal/capping). 0 = uncapped;
	// a negative or NaN cap is an error.
	// Under a Hierarchy, CapW instead bounds what any socket may be
	// granted (a physical per-socket ceiling on the leaf grants).
	CapW float64
	// Allocator is the per-socket budget strategy (default:
	// capping.Waterfill). Allocators are stateless values (per-round
	// scratch lives in each socket's Domain), so one value serves every
	// socket concurrently.
	Allocator capping.Allocator

	// Hierarchy, when non-nil, runs the fleet under a nested budget tree
	// (rack → PDU → ... → socket): the tree's leaf grants become
	// time-varying per-socket caps, re-allocated from reported demand at
	// the barriers between RunFleet's Epoch-long phases (see fleetcap.go).
	// Requires Epoch > 0.
	Hierarchy *capping.HierarchySpec
	// Epoch is the hierarchy's re-allocation cadence in simulated ns:
	// sockets advance independently between barriers and exchange demand
	// for caps at each multiple of Epoch.
	Epoch sim.Time

	// TableCacheEntries sizes the content-addressed tail-table rebuild
	// caches: in a flat fleet every socket a shard goroutine simulates
	// shares that shard's cache, so byte-identical rebuild inputs — across
	// ticks of one controller or across cores and sockets — run the FFT
	// convolutions once; a hierarchical fleet gives each socket its own.
	// 0 (the default) enables DefaultTableCacheEntries-entry caches —
	// fleet mode is cached by default because a verified hit is
	// bitwise-identical to rebuilding, so results are unchanged (the
	// invariance tests and CI's cached-vs-uncached cmp pin this). < 0
	// disables caching; > 0 sets an explicit bound.
	TableCacheEntries int
}

// tableCacheEntries resolves the per-cache entry bound (0 = disabled).
func (cfg FleetConfig) tableCacheEntries() int {
	switch {
	case cfg.TableCacheEntries < 0:
		return 0
	case cfg.TableCacheEntries == 0:
		return DefaultTableCacheEntries
	default:
		return cfg.TableCacheEntries
	}
}

// socketConfig assembles the per-socket cluster Config: socket s of a
// fleet is exactly a CoresPerSocket-core cluster run, so fleet semantics
// reduce to the (golden-pinned) single-engine cluster semantics.
func (cfg FleetConfig) socketConfig(s int) Config {
	c := Config{
		Cores:     cfg.CoresPerSocket,
		Core:      cfg.Core,
		CapW:      cfg.CapW,
		Allocator: cfg.Allocator,
	}
	if cfg.NewDispatcher != nil {
		c.Dispatcher = cfg.NewDispatcher(s)
	}
	if cfg.NewPolicy != nil {
		s := s
		c.NewPolicy = func(core int) (queueing.Policy, error) {
			return cfg.NewPolicy(s, core)
		}
	}
	return c
}

// shardCount resolves the effective shard count.
func (cfg FleetConfig) shardCount() int {
	n := cfg.Shards
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if n > cfg.Sockets {
		n = cfg.Sockets
	}
	if n < 1 {
		n = 1
	}
	return n
}

// FleetResult is the outcome of a fleet run: one cluster Result per
// socket, in socket order. Per-socket capping accounting (when the fleet
// was capped) lives in each socket Result's Capping field.
type FleetResult struct {
	// Shards is the shard count the run used (reporting only — results
	// are invariant to it).
	Shards int
	// Sockets holds each socket's cluster Result.
	Sockets []Result
	// TableCache sums the rebuild-cache outcomes (hits, misses,
	// collisions, evictions); the zero value means caching was disabled
	// or no policy used it. Reporting only: socket results are invariant
	// to cache hits (a verified hit is bitwise-identical to rebuilding).
	// A flat run's caches are per shard, and work stealing assigns
	// sockets to shards by timing, so its counts may differ between runs.
	// A hierarchical run's caches are per socket, so its counts are
	// deterministic.
	TableCache rubikcore.TableCacheStats
	// Hierarchy holds the budget tree's per-level accounting when the
	// fleet ran under FleetConfig.Hierarchy; nil for flat runs.
	Hierarchy *capping.HierarchyStats
}

// TailNs pools post-warmup responses across every core of every socket
// and returns the q-quantile, falling back to merging the streamed
// per-core response histograms when completion logs were dropped
// (queueing.Config.DropCompletions) — the same two-path estimate as
// Result.TailNs, fleet-wide.
func (r FleetResult) TailNs(q, warmupFrac float64) float64 {
	return pooledTailNs(r.Sockets, q, warmupFrac)
}

// Served counts completed requests across the fleet.
func (r FleetResult) Served() int {
	var n int
	for _, s := range r.Sockets {
		n += s.Served()
	}
	return n
}

// ActiveEnergyJ sums active core energy across the fleet.
func (r FleetResult) ActiveEnergyJ() float64 {
	var e float64
	for _, s := range r.Sockets {
		e += s.ActiveEnergyJ()
	}
	return e
}

// TotalEnergyJ sums active plus idle energy across the fleet.
func (r FleetResult) TotalEnergyJ() float64 {
	var e float64
	for _, s := range r.Sockets {
		e += s.TotalEnergyJ()
	}
	return e
}

// EnergyPerRequestJ is fleet-pooled active energy per completed request.
func (r FleetResult) EnergyPerRequestJ() float64 {
	n := r.Served()
	if n == 0 {
		return 0
	}
	return r.ActiveEnergyJ() / float64(n)
}

// EndTime is the latest socket end time: the simulated duration of the
// fleet run (sockets are independent, so each ends on its own clock).
func (r FleetResult) EndTime() sim.Time {
	var end sim.Time
	for _, s := range r.Sockets {
		if s.EndTime > end {
			end = s.EndTime
		}
	}
	return end
}

// Capping lists the per-socket power-domain accounting in socket order
// (empty when the fleet ran uncapped).
func (r FleetResult) Capping() []capping.DomainStats {
	var out []capping.DomainStats
	for _, s := range r.Sockets {
		if s.Capping != nil {
			out = append(out, *s.Capping)
		}
	}
	return out
}

// RunFleet simulates the fleet across cfg.Shards parallel event loops.
//
// Flat and hierarchical fleets share one phase loop. A flat fleet runs a
// single phase, to drain. A hierarchical fleet's phases end at each
// multiple of Epoch, with a budget-tree barrier between them (see
// fleetcap.go).
//
// Within a phase, sockets are scheduled by work stealing: shard
// goroutines claim the next unclaimed socket from a shared atomic
// counter (forEachSocket). The first claim builds the socket, on its own
// sim.Engine with its own cores, dispatcher and capping domain; every
// claim advances it to the phase target. A socket is finalised on the
// claiming shard as soon as it drains, and is then released. Stealing
// replaced a static round-robin partition because per-socket loads are
// not uniform: one heavy socket used to stall its whole shard while
// sibling shards sat idle. Sockets get dedicated engines rather than one engine per shard
// because engine-global quantities (the end-of-run clock that trailing
// idle-energy accounting accrues to) would otherwise couple co-resident
// sockets. Sockets therefore stay shared-nothing and the schedule is
// pure timing: socket s's Result is a function of (source, config, and
// the caps the barriers hand it) alone, so shard=N output is deeply
// equal to shard=1 output for every N even though the socket→shard
// assignment itself is nondeterministic. After every phase the
// lowest-indexed socket error is reported, whichever shard hit it first.
//
// Rebuild caches (see TableCacheEntries) are goroutine-confined. A
// one-phase run hands every socket the claiming shard's cache, so a
// stolen socket warms whichever shard's cache it lands on. A phased run
// gives each socket its own cache, because sockets move between shards
// at barriers. Cache hits copy bitwise-identical tables, so the
// shard-invariance property is unaffected either way.
func RunFleet(cfg FleetConfig) (FleetResult, error) {
	if cfg.Sockets <= 0 {
		return FleetResult{}, fmt.Errorf("cluster: fleet needs at least 1 socket, got %d", cfg.Sockets)
	}
	if cfg.CoresPerSocket <= 0 {
		return FleetResult{}, fmt.Errorf("cluster: fleet needs at least 1 core per socket, got %d", cfg.CoresPerSocket)
	}
	if cfg.NewSource == nil {
		return FleetResult{}, fmt.Errorf("cluster: fleet needs a NewSource factory")
	}
	shards := cfg.shardCount()
	step, nCaches := sim.Time(math.MaxInt64), shards // one phase, to drain
	var tree *budgetTree
	if cfg.Hierarchy != nil {
		var err error
		if tree, err = newBudgetTree(cfg); err != nil {
			return FleetResult{}, err
		}
		step, nCaches = cfg.Epoch, cfg.Sockets
	} else if cfg.Epoch != 0 {
		return FleetResult{}, fmt.Errorf("cluster: Epoch set without a Hierarchy")
	}
	caches := cfg.newTableCaches(nCaches)

	sims := make([]*socketSim, cfg.Sockets) // nil before the first claim and after finalising
	done := make([]bool, cfg.Sockets)
	results := make([]Result, cfg.Sockets)
	errs := make([]error, cfg.Sockets)
	// claim is shard k's turn at socket s in the phase ending at target:
	// build it on the first claim, advance it, and finalise and release it
	// once it drains.
	var target sim.Time
	claim := func(k, s int) {
		if done[s] {
			return
		}
		if sims[s] == nil {
			src := cfg.NewSource(s)
			if src == nil {
				errs[s] = errors.New("NewSource returned nil")
				return
			}
			c := cfg.socketConfig(s)
			c.TableCache = caches[k]
			if tree != nil {
				c.CapW, c.TableCache = tree.caps[s], caches[s]
			}
			if sims[s], errs[s] = newSocketSim(src, c); errs[s] != nil {
				return
			}
		}
		if !sims[s].advanceTo(target) {
			return
		}
		results[s], errs[s] = sims[s].result()
		sims[s], done[s] = nil, true
	}
	for target = step; ; target = sim.AddSpan(target, step) {
		forEachSocket(shards, cfg.Sockets, claim)
		running := false
		for s, err := range errs {
			if err != nil {
				return FleetResult{}, fmt.Errorf("cluster: fleet socket %d: %w", s, err)
			}
			running = running || !done[s]
		}
		if !running {
			break
		}
		tree.barrier(target, sims) // only a phased run has sockets left
	}
	out := FleetResult{Shards: shards, Sockets: results, TableCache: sumCacheStats(caches)}
	if tree != nil {
		out.Hierarchy = tree.stats()
	}
	return out, nil
}

// forEachSocket runs fn(shard, socket) for every socket of the fleet
// across shards work-stealing goroutines: each goroutine claims the next
// unclaimed socket from a shared atomic counter until none remain. The
// goroutines carry pprof labels per shard and per claimed socket, so CPU
// profiles (rubiksim -cpuprofile) attribute samples to both; the socket
// label is rewritten as a shard steals new work. It is a barrier: every
// socket has been processed when it returns.
func forEachSocket(shards, sockets int, fn func(shard, socket int)) {
	var next atomic.Int64 // next unclaimed socket index
	var wg sync.WaitGroup
	for k := 0; k < shards; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			pprof.Do(context.Background(), pprof.Labels("fleet_shard", strconv.Itoa(k)), func(ctx context.Context) {
				for {
					s := int(next.Add(1)) - 1
					if s >= sockets {
						return
					}
					pprof.Do(ctx, pprof.Labels("socket", strconv.Itoa(s)), func(context.Context) {
						fn(k, s)
					})
				}
			})
		}(k)
	}
	wg.Wait()
}

// newTableCaches returns n rebuild caches sized by TableCacheEntries, or
// n nils when caching is disabled.
func (cfg FleetConfig) newTableCaches(n int) []*rubikcore.TableCache {
	caches := make([]*rubikcore.TableCache, n)
	if entries := cfg.tableCacheEntries(); entries > 0 {
		for i := range caches {
			caches[i] = rubikcore.NewTableCache(entries)
		}
	}
	return caches
}

// sumCacheStats adds up the outcome counters of the (possibly nil) caches.
func sumCacheStats(caches []*rubikcore.TableCache) rubikcore.TableCacheStats {
	var st rubikcore.TableCacheStats
	for _, c := range caches {
		if c != nil {
			st.Add(c.Stats())
		}
	}
	return st
}
