package main

import (
	"fmt"

	"rubik/internal/capping"
	"rubik/internal/cluster"
	rubikcore "rubik/internal/core"
	"rubik/internal/cpu"
	"rubik/internal/queueing"
	"rubik/internal/sim"
	"rubik/internal/workload"
)

// workloadSpec is one fleet shape. Every workload runs masstree behind
// socket-local JSQ, with per-socket sources seeded ShardSeed(seed, s) and
// arrivals open-loop in simulated time (the host side is a batch job, so
// there is no generator lag to report).
type workloadSpec struct {
	Name string
	Why  string
	// Sockets x Cores is the fleet; PerCore is the request count per core
	// of one repetition. The Quick sizes serve the tests and -quick.
	Sockets, Cores, PerCore    int
	QuickSockets, QuickPerCore int
	Scenario                   string
	// Load returns socket s's per-core load fraction.
	Load func(s, sockets int) float64
	// Refresh is the Rubik table refresh period; 0 runs every core at a
	// fixed 2.4 GHz instead (the paper's baseline arm).
	Refresh sim.Time
	// Drop streams completions into per-core log-histograms instead of
	// keeping completion logs.
	Drop bool
	// RackWPerSocket > 0 runs the fleet under a rack -> 2 PDU budget tree
	// (waterfill at both levels and inside each socket) re-allocated every
	// Epoch, with the PDUs oversubscribed by Oversub.
	RackWPerSocket float64
	Oversub        float64
	Epoch          sim.Time
	// check, when set, asserts that the mechanism this workload exists to
	// exercise actually ran.
	check func(w workloadSpec, r repResult) error
}

func flatLoad(l float64) func(int, int) float64 {
	return func(int, int) float64 { return l }
}

// workloads is the registry; BENCHMARK.json mirrors it (main_test.go).
var workloads = []workloadSpec{
	{
		Name:    "paper",
		Why:     "paper operating point: 8x6 cores, Poisson 50% load, 100 ms table refresh, full completion logs and a pooled sort; the rebuild cache never hits",
		Sockets: 8, Cores: 6, PerCore: 4000,
		QuickSockets: 2, QuickPerCore: 600,
		Scenario: "poisson",
		Load:     flatLoad(0.5),
		Refresh:  100 * sim.Millisecond,
	},
	{
		Name:    "trough",
		Why:     "bursty 10% load at a 2 ms table refresh: rebuilds are nearly all host time and ~35% hit the rebuild cache, isolating the spectral pipeline",
		Sockets: 4, Cores: 6, PerCore: 500,
		QuickSockets: 2, QuickPerCore: 150,
		Scenario: "bursty",
		Load:     flatLoad(0.1),
		Refresh:  2 * sim.Millisecond,
		check: func(_ workloadSpec, r repResult) error {
			if r.CacheHits == 0 {
				return fmt.Errorf("rebuild cache never hit")
			}
			return nil
		},
	},
	{
		Name:    "rackcap",
		Why:     "16x4 cores under a rack->PDU waterfill budget with 5 ms epochs and skewed diurnal load: the only workload with allocator rounds and barriers",
		Sockets: 16, Cores: 4, PerCore: 2000,
		QuickSockets: 4, QuickPerCore: 400,
		Scenario: "diurnal",
		Load: func(s, sockets int) float64 {
			return 0.3 + 0.4*float64(s)/float64(sockets-1)
		},
		Refresh:        100 * sim.Millisecond,
		RackWPerSocket: 16,
		Oversub:        1.25,
		Epoch:          5 * sim.Millisecond,
		check: func(_ workloadSpec, r repResult) error {
			if r.Reallocations == 0 || r.CapChanges == 0 {
				return fmt.Errorf("budget tree idle: %d reallocations, %d cap changes", r.Reallocations, r.CapChanges)
			}
			return nil
		},
	},
	{
		Name:    "stream",
		Why:     "16x6 fixed-2.4 GHz cores at Poisson 70% with streamed histograms: source, dispatch, engine and queueing core are all host time, in constant memory",
		Sockets: 16, Cores: 6, PerCore: 25000,
		QuickSockets: 2, QuickPerCore: 2000,
		Scenario: "poisson",
		Load:     flatLoad(0.7),
		Drop:     true,
		check: func(w workloadSpec, r repResult) error {
			// Streamed completions allocate per core (one log-histogram
			// each), never per request: a completion log alone would be
			// 72 B/req, i.e. 1.8 MB per core at 25k requests.
			if perCore := r.AllocBytes / uint64(w.Sockets*w.Cores); perCore >= 96<<10 {
				return fmt.Errorf("streaming run allocated %d B per core (%.2f B/req)", perCore, r.AllocBPerReq)
			}
			return nil
		},
	},
}

// sized returns the workload at quick sizes when quick is set.
func (w workloadSpec) sized(quick bool) workloadSpec {
	if quick {
		w.Sockets, w.PerCore = w.QuickSockets, w.QuickPerCore
	}
	return w
}

// offered is the request count of one repetition.
func (w workloadSpec) offered() int { return w.Sockets * w.Cores * w.PerCore }

// fleet builds the workload's fleet configuration. A nil tracer builds the
// plain configuration; a non-nil one wraps every layer interface the fleet
// calls (trace.go), leaving the simulation itself unchanged.
func (w workloadSpec) fleet(seed int64, boundNs float64, shards int, tr *tracer) (cluster.FleetConfig, error) {
	app := workload.Masstree()
	sc, err := workload.ScenarioByName(w.Scenario)
	if err != nil {
		return cluster.FleetConfig{}, err
	}
	n := w.Cores * w.PerCore
	cfg := cluster.FleetConfig{
		Sockets:        w.Sockets,
		CoresPerSocket: w.Cores,
		Shards:         shards,
		Core:           queueing.DefaultConfig(),
		NewSource: func(s int) workload.Source {
			load := w.Load(s, w.Sockets) * float64(w.Cores)
			return tr.source(s, sc.New(app, load, n, workload.ShardSeed(seed, s)))
		},
		NewDispatcher: func(s int) cluster.Dispatcher {
			return tr.dispatcher(s, cluster.NewJSQ())
		},
		NewPolicy: func(s, c int) (queueing.Policy, error) {
			if w.Refresh == 0 {
				return tr.fixed(s, queueing.FixedPolicy{MHz: cpu.NominalMHz}), nil
			}
			rcfg := rubikcore.DefaultConfig(boundNs)
			rcfg.UpdatePeriod = w.Refresh
			r, err := rubikcore.New(rcfg)
			if err != nil {
				return nil, err
			}
			return tr.rubik(s, c, r), nil
		},
	}
	cfg.Core.DropCompletions = w.Drop
	if w.RackWPerSocket > 0 {
		cfg.Allocator = tr.allocator(capping.Waterfill{})
		cfg.Hierarchy = &capping.HierarchySpec{Levels: []capping.LevelSpec{
			{Name: "rack", Nodes: 1, CapW: w.RackWPerSocket * float64(w.Sockets), Alloc: tr.level(capping.WaterfillLevel{})},
			{Name: "pdu", Nodes: 2, Oversub: w.Oversub, Alloc: tr.level(capping.WaterfillLevel{})},
		}}
		cfg.Epoch = w.Epoch
	}
	return cfg, nil
}
