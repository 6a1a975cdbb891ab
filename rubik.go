// Package rubik is a Go reproduction of "Rubik: Fast Analytical Power
// Management for Latency-Critical Systems" (Kasture, Bartolini, Beckmann,
// Sanchez — MICRO-48, 2015).
//
// Rubik is a fine-grain per-core DVFS controller: on every request arrival
// and completion it consults a statistical model of per-request work
// (compute cycles and memory-bound time, profiled online) to pick the
// lowest core frequency that keeps the tail (95th-percentile) response
// latency under a bound. This module contains the controller itself, the
// discrete-event simulation substrate the paper's evaluation needs (cores
// with DVFS and power models, latency-critical workload models, Poisson and
// step-load clients), the baseline schemes it is compared against
// (Fixed-frequency, StaticOracle, AdrenalineOracle, DynamicOracle, and a
// Pegasus-style feedback controller), the RubikColoc colocation substrate,
// a multi-core cluster simulator with pluggable request dispatch
// (NewCluster, SimulateCluster), a sharded fleet engine that simulates
// thousands of sockets across parallel event loops with shard-count-
// invariant results (NewFleet, SimulateFleet), a datacenter fleet model,
// and one experiment driver per table/figure of the paper.
//
// Every run entry point is Source-first: Simulate (one core),
// SimulateCluster (one multi-core server) and SimulateFleet (many
// sockets) all pull requests from a Source. A scenario registry
// (NewScenarioSource) provides bursty MMPP, diurnal, flash-crowd,
// closed-loop and heavy-tailed shapes beyond the paper's Poisson/step
// clients, and because nothing on the streaming path materializes a
// trace, runs of tens of millions of requests use constant memory
// (ServerConfig.DropCompletions folds per-request records into a
// fixed-size latency histogram). Every source is finite and knows its
// length (Source.Len; for closed-loop clients an upper bound that a live
// run reaches): a run ends when its source drains and its queues empty,
// and every entry point, colocated cores included, feeds closed-loop
// clients their completions. A materialized Trace is
// just one Source: TraceSource(GenerateTrace(...)) replays
// byte-identically to StreamTrace with the same arguments. Power capping
// is set through the CapW and Allocator fields of the cluster and fleet
// configurations, not through a separate entry point.
//
// # Quick start
//
//	app, _ := rubik.AppByName("masstree")
//	src := rubik.StreamTrace(app, 0.4, 9000, 1)        // 40% load
//	bound, _ := rubik.TailBound(app, 1)                // p95 @ fixed 2.4 GHz, 50% load
//	ctl, _ := rubik.NewController(bound)
//	res, _ := rubik.Simulate(src, ctl, rubik.DefaultServerConfig())
//	fmt.Printf("p95 %.3f ms using %.3f mJ/request\n",
//		res.TailNs(0.95, 0.1)/1e6, res.EnergyPerRequestJ()*1e3)
//
// Experiment drivers (rubik.Experiments, rubik.RunExperiment) regenerate
// every table and figure of the paper's evaluation; the rubiksim command
// wraps them for the shell. DESIGN.md documents the architecture and the
// substitutions made for the paper's hardware-bound artifacts, and
// EXPERIMENTS.md records paper-vs-measured results.
package rubik

import (
	"io"

	"rubik/internal/capping"
	"rubik/internal/cluster"
	rubikcore "rubik/internal/core"
	"rubik/internal/cpu"
	"rubik/internal/experiments"
	"rubik/internal/policy"
	"rubik/internal/queueing"
	"rubik/internal/sim"
	"rubik/internal/workload"
)

// Core aliases: the facade re-exports the building blocks so downstream
// code can use the library without reaching into internal packages.
type (
	// App is a latency-critical application model (paper Table 3).
	App = workload.LCApp
	// BatchApp is a throughput-oriented batch application model.
	BatchApp = workload.BatchApp
	// Trace is a reusable request stream; every scheme in a comparison
	// replays the same trace.
	Trace = workload.Trace
	// Request is one request of a trace.
	Request = workload.Request
	// Controller is the Rubik DVFS controller (the paper's contribution).
	Controller = rubikcore.Rubik
	// ControllerConfig tunes a Controller. The notable knob beyond the
	// paper parameters is DriftThreshold, which enables the drift-gated
	// table refresh (skip the convolutions while the profiled
	// distributions are still; 0 = always rebuild, byte-identical
	// results).
	ControllerConfig = rubikcore.Config
	// TailTable is the pair of precomputed target tail tables.
	TailTable = rubikcore.TailTable
	// Policy decides core frequencies on each arrival and completion.
	Policy = queueing.Policy
	// Result is the outcome of simulating a trace under a policy.
	Result = queueing.Result
	// Completion records one served request.
	Completion = queueing.Completion
	// ServerConfig parameterizes the simulated core.
	ServerConfig = queueing.Config
	// Grid is a DVFS frequency grid.
	Grid = cpu.Grid
	// PowerModel is the analytical core power model.
	PowerModel = cpu.PowerModel
	// ExperimentOptions tunes experiment fidelity.
	ExperimentOptions = experiments.Options
	// Experiment describes one registered paper artifact driver.
	Experiment = experiments.Entry
	// ClusterConfig parameterizes a simulated multi-core server.
	ClusterConfig = cluster.Config
	// ClusterResult is the outcome of simulating a trace on a cluster.
	ClusterResult = cluster.Result
	// Dispatcher routes arriving requests to cluster cores.
	Dispatcher = cluster.Dispatcher
	// CoreState is the dispatcher-visible snapshot of one cluster core.
	CoreState = cluster.CoreState
	// FleetConfig parameterizes a sharded fleet: Sockets independent core
	// groups (each with its own source, dispatcher and power budget)
	// simulated across Shards parallel event loops. Results are invariant
	// to the shard count.
	FleetConfig = cluster.FleetConfig
	// FleetResult is the outcome of a fleet run: one ClusterResult per
	// socket, with pooled tails/energy computed from the per-core logs
	// and the aggregate rebuild-cache statistics (TableCache).
	FleetResult = cluster.FleetResult
	// TableCache is a bounded, content-addressed memo of tail-table
	// rebuilds: refreshes whose profiled inputs match a cached rebuild bit
	// for bit copy the cached table instead of re-running the FFT
	// convolutions, with bitwise-identical results. Goroutine-confined —
	// fleet runs create one per shard automatically
	// (FleetConfig.TableCacheEntries); attach one by hand via
	// ClusterConfig.TableCache or Controller.SetTableCache.
	TableCache = rubikcore.TableCache
	// TableCacheStats counts rebuild-cache outcomes (hits, misses,
	// fingerprint collisions, evictions).
	TableCacheStats = rubikcore.TableCacheStats
	// Source is a pull-based request stream: the streaming counterpart of
	// a Trace. Simulations consume sources without materializing them, so
	// run length is bounded by time, not memory.
	Source = workload.Source
	// Scenario is a named arrival/service shape in the scenario registry
	// (poisson, step, bursty, diurnal, flashcrowd, closedloop, heavytail,
	// correlated).
	Scenario = workload.Scenario
	// ArrivalProcess generates interarrival gaps (Poisson, StepLoad,
	// MMPP, Sinusoid, FlashCrowd).
	ArrivalProcess = workload.ArrivalProcess
	// ClosedLoop configures a closed-loop think-time client population.
	ClosedLoop = workload.ClosedLoop
	// Allocator reconciles per-core desired frequencies against a shared
	// power budget (uniform, greedy-slack, waterfill).
	Allocator = capping.Allocator
	// PowerDomainStats is the budget accounting of a capped cluster run's
	// one power domain, the socket (ClusterResult.Capping).
	PowerDomainStats = capping.DomainStats
	// HierarchySpec describes a budget tree (rack -> PDU -> ... -> socket)
	// for hierarchical fleet capping (FleetConfig.Hierarchy).
	HierarchySpec = capping.HierarchySpec
	// LevelSpec is one level of a HierarchySpec: node count, optional
	// per-node cap, oversubscription ratio and allocator.
	LevelSpec = capping.LevelSpec
	// LevelAllocator divides one tree node's budget among its children
	// (StaticLevelAllocator, WaterfillLevelAllocator).
	LevelAllocator = capping.LevelAllocator
	// HierarchyStats is the per-level accounting of a hierarchical fleet
	// run (FleetResult.Hierarchy), the socket level last.
	HierarchyStats = capping.HierarchyStats
	// LevelStats is one level's grant statistics within HierarchyStats.
	LevelStats = capping.LevelStats
	// Time is a simulated timestamp or duration in nanoseconds
	// (FleetConfig.Epoch, ServerConfig.TransitionLatency).
	Time = sim.Time
)

// NominalMHz is the nominal core frequency (2.4 GHz, paper Table 2).
const NominalMHz = cpu.NominalMHz

// DefaultTableCacheEntries is the per-shard rebuild-cache capacity fleet
// runs use when FleetConfig.TableCacheEntries is 0.
const DefaultTableCacheEntries = cluster.DefaultTableCacheEntries

// NewTableCache returns a rebuild cache bounded at the given entry count
// (at least 1). One cache per goroutine: it does not synchronize.
func NewTableCache(entries int) *TableCache { return rubikcore.NewTableCache(entries) }

// TailPercentile is the paper's tail definition (95th percentile).
const TailPercentile = 0.95

// Apps returns the five latency-critical application models in the paper's
// order: masstree, moses, shore, specjbb, xapian.
func Apps() []App { return workload.Apps() }

// AppByName looks an application model up by its paper name.
func AppByName(name string) (App, error) { return workload.AppByName(name) }

// DefaultGrid returns the paper's DVFS grid (0.8-3.4 GHz, 200 MHz steps).
func DefaultGrid() Grid { return cpu.DefaultGrid() }

// DefaultServerConfig returns the paper's simulated-core configuration.
func DefaultServerConfig() ServerConfig { return queueing.DefaultConfig() }

// GenerateTrace builds a Poisson request trace at a fraction of the app's
// nominal-frequency capacity (1.0 = the maximum rate at 2.4 GHz). n <= 0
// gives an empty trace.
func GenerateTrace(app App, load float64, n int, seed int64) Trace {
	return workload.GenerateAtLoad(app, load, n, seed)
}

// StreamTrace returns the streaming equivalent of GenerateTrace: a
// Poisson source yielding the byte-identical request sequence for the
// same arguments, one request at a time. n <= 0 streams nothing; pair a
// long stream with ServerConfig.DropCompletions for constant memory.
func StreamTrace(app App, load float64, n int, seed int64) Source {
	return workload.NewLoadSource(app, load, n, seed)
}

// TraceSource streams a materialized trace, so any run entry point can
// replay it.
func TraceSource(tr Trace) Source { return workload.NewTraceSource(tr) }

// Scenarios lists the registered arrival/service scenario shapes. A
// scenario's New streams nothing on a load NewScenarioSource rejects.
func Scenarios() []Scenario { return workload.Scenarios() }

// ScenarioByName looks a scenario up in the registry.
func ScenarioByName(name string) (Scenario, error) { return workload.ScenarioByName(name) }

// NewScenarioSource builds the named scenario's source for app at a mean
// load fraction, capped at n requests, deterministically per seed. A
// negative n, or a load that is not finite and positive or too low for
// the simulated clock, is an error.
func NewScenarioSource(name string, app App, load float64, n int, seed int64) (Source, error) {
	return workload.NewScenarioSource(name, app, load, n, seed)
}

// TailBound measures the app's latency bound the way the paper defines it:
// the p95 response latency of fixed-nominal execution at 50% load.
func TailBound(app App, seed int64) (float64, error) {
	tr := workload.GenerateAtLoad(app, 0.5, app.Requests, seed)
	res, err := queueing.Run(tr, queueing.FixedPolicy{MHz: cpu.NominalMHz}, queueing.DefaultConfig())
	if err != nil {
		return 0, err
	}
	return res.TailNs(TailPercentile, 0), nil
}

// NewController builds a Rubik controller with the paper's parameters for
// the given tail latency bound (ns).
func NewController(latencyBoundNs float64) (*Controller, error) {
	return rubikcore.New(rubikcore.DefaultConfig(latencyBoundNs))
}

// DefaultControllerConfig returns the paper's Rubik parameters for the
// given tail latency bound (ns), for callers that tweak knobs — e.g.
// DriftThreshold — before NewControllerWithConfig.
func DefaultControllerConfig(latencyBoundNs float64) ControllerConfig {
	return rubikcore.DefaultConfig(latencyBoundNs)
}

// NewControllerWithConfig builds a Rubik controller with explicit settings.
func NewControllerWithConfig(cfg ControllerConfig) (*Controller, error) {
	return rubikcore.New(cfg)
}

// Fixed returns the Fixed-frequency baseline policy.
func Fixed(mhz int) Policy { return queueing.FixedPolicy{MHz: mhz} }

// Simulate streams a source through a policy on one simulated core
// configured by cfg (DefaultServerConfig is the paper's core). Replay a
// materialized trace with TraceSource; for constant-memory runs of long
// streams set cfg.DropCompletions. The run ends when the source drains
// and the core's queue empties. cfg is validated first: an empty grid,
// an off-grid InitialMHz or a non-physical power model is an error.
func Simulate(src Source, p Policy, cfg ServerConfig) (Result, error) {
	return queueing.RunSource(src, p, cfg)
}

// NewCluster assembles a multi-core server configuration: cores cores on
// one shared engine, each under a fresh policy from newPolicy, with the
// dispatcher routing arrivals. A nil dispatcher means round-robin. Set
// the returned config's CapW and Allocator fields for a shared power
// budget over one domain (the socket) spanning every core.
func NewCluster(cores int, d Dispatcher, newPolicy func(core int) (Policy, error)) ClusterConfig {
	return cluster.Config{
		Cores:      cores,
		Dispatcher: d,
		Core:       queueing.DefaultConfig(),
		NewPolicy:  newPolicy,
	}
}

// SimulateCluster streams a source through a simulated multi-core
// server. The source carries the server's aggregate request stream
// (StreamTrace with load scaled by the core count models N cores at a
// per-core load). Set cfg.CapW (and optionally cfg.Allocator, default
// waterfill) to run under a shared power budget; the result's Capping
// field then points at the socket domain's accounting.
func SimulateCluster(src Source, cfg ClusterConfig) (ClusterResult, error) {
	return cluster.RunSource(src, cfg)
}

// NewFleet assembles a sharded fleet configuration: sockets independent
// groups of coresPerSocket cores, socket s fed by newSource(s) (derive
// per-socket seeds with ShardSeed) under fresh per-core policies from
// newPolicy. Dispatch defaults to per-socket round-robin and the shard
// count to GOMAXPROCS; set the returned config's NewDispatcher, Shards,
// CapW and Allocator fields to override. Rebuild caching is on by
// default (one TableCache of DefaultTableCacheEntries per shard); tune
// or disable it with the TableCacheEntries field.
func NewFleet(sockets, coresPerSocket int, newSource func(socket int) Source,
	newPolicy func(socket, core int) (Policy, error)) FleetConfig {
	return cluster.FleetConfig{
		Sockets:        sockets,
		CoresPerSocket: coresPerSocket,
		NewSource:      newSource,
		Core:           queueing.DefaultConfig(),
		NewPolicy:      newPolicy,
	}
}

// SimulateFleet runs a fleet across its configured shard count: shard
// goroutines steal sockets from a shared work queue and simulate each on
// a dedicated event loop, and the per-socket results merge
// deterministically — shard=N output is deeply equal to shard=1, which
// is the plain sequential loop over the sockets.
func SimulateFleet(cfg FleetConfig) (FleetResult, error) {
	return cluster.RunFleet(cfg)
}

// ShardSeed derives the seed for independent group (socket) i of a fleet
// from a fleet-level seed, so per-socket sources are deterministic per
// fleet seed yet mutually independent.
func ShardSeed(seed int64, group int) int64 { return workload.ShardSeed(seed, group) }

// DispatcherByName looks a dispatch discipline up by name (random,
// roundrobin, jsq, leastwork); seed only matters for random.
func DispatcherByName(name string, seed int64) (Dispatcher, error) {
	return cluster.DispatcherByName(name, seed)
}

// UniformAllocator splits the budget into equal per-core shares.
func UniformAllocator() Allocator { return capping.Uniform{} }

// GreedySlackAllocator sheds frequency from the cores with the most
// predicted tail slack first when the cap binds.
func GreedySlackAllocator() Allocator { return capping.GreedySlack{} }

// WaterfillAllocator raises cores toward their desired frequencies
// lowest-first until the budget is exhausted (FastCap-style max-min
// water-filling; the default strategy).
func WaterfillAllocator() Allocator { return capping.Waterfill{} }

// AllocatorByName looks an allocator strategy up by name (uniform,
// greedy-slack, waterfill).
func AllocatorByName(name string) (Allocator, error) { return capping.ByName(name) }

// StaticLevelAllocator divides a tree node's budget into equal per-child
// shares regardless of demand.
func StaticLevelAllocator() LevelAllocator { return capping.StaticLevel{} }

// WaterfillLevelAllocator raises children toward their reported demands
// lowest-first, then spreads any surplus toward their maxima (the default
// level strategy).
func WaterfillLevelAllocator() LevelAllocator { return capping.WaterfillLevel{} }

// LevelAllocatorByName looks a tree-level allocator up by name (static,
// waterfill).
func LevelAllocatorByName(name string) (LevelAllocator, error) { return capping.LevelByName(name) }

// RandomDispatcher routes requests uniformly at random, reproducibly for
// a seed.
func RandomDispatcher(seed int64) Dispatcher { return cluster.NewRandom(seed) }

// RoundRobinDispatcher cycles through the cores in index order.
func RoundRobinDispatcher() Dispatcher { return cluster.NewRoundRobin() }

// JSQDispatcher routes to the core with the shortest queue (ties to the
// lowest index).
func JSQDispatcher() Dispatcher { return cluster.NewJSQ() }

// LeastWorkDispatcher routes to the core with the least pending work at
// its current frequency (ties to the lowest index).
func LeastWorkDispatcher() Dispatcher { return cluster.NewLeastWork() }

// StaticOracleMHz returns the lowest static frequency whose replay of the
// trace meets the bound (paper Sec. 5.2), and whether any frequency does.
// An empty trace, or a bound that is not finite and positive, is an
// error.
func StaticOracleMHz(tr Trace, boundNs float64) (mhz int, feasible bool, err error) {
	res, err := policy.StaticOracle(tr, cpu.DefaultGrid(), boundNs, TailPercentile, policy.DefaultReplayConfig())
	if err != nil {
		return 0, false, err
	}
	return res.MHz, res.Feasible, nil
}

// Experiments lists the registered paper-artifact drivers.
func Experiments() []Experiment { return experiments.Registry() }

// RunExperiment executes a registered experiment by ID (e.g. "fig6") and
// writes its text rendering to w.
func RunExperiment(id string, opts ExperimentOptions, w io.Writer) error {
	return experiments.RunAndRender(id, opts, w)
}
