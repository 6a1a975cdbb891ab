package cluster

import (
	"math"
	"reflect"
	"runtime"
	"testing"

	"rubik/internal/queueing"
	"rubik/internal/workload"
)

// fleetConfig builds the test fleet: per-socket scenario sources with
// ShardSeed-derived seeds, a fresh dispatcher per socket, fixed-frequency
// cores (the sharding property is about partitioning, not the policy).
func fleetConfig(t *testing.T, scenario, dispatcher string, sockets, coresPer, nPer int, capW float64, shards int) FleetConfig {
	t.Helper()
	app := workload.Masstree()
	sc, err := workload.ScenarioByName(scenario)
	if err != nil {
		t.Fatal(err)
	}
	base := DefaultConfig()
	return FleetConfig{
		Sockets:        sockets,
		CoresPerSocket: coresPer,
		Shards:         shards,
		NewSource: func(s int) workload.Source {
			return sc.New(app, 0.5*float64(coresPer), nPer, workload.ShardSeed(7, s))
		},
		NewDispatcher: func(s int) Dispatcher {
			d, err := DispatcherByName(dispatcher, workload.ShardSeed(7, s))
			if err != nil {
				panic(err)
			}
			return d
		},
		Core: base.Core,
		NewPolicy: func(int, int) (queueing.Policy, error) {
			return queueing.FixedPolicy{MHz: base.Core.InitialMHz}, nil
		},
		CapW: capW,
	}
}

// TestFleetShardInvariance is the tentpole property: for every dispatcher
// x scenario shape x capped/uncapped cell, running
// the fleet on 1 shard, 2 shards and one shard per socket produces deeply
// equal per-socket results. Shards are shared-nothing, so the partition
// is pure scheduling — any divergence here means state leaked across
// sockets.
func TestFleetShardInvariance(t *testing.T) {
	const sockets, coresPer = 3, 2
	scenarios := []string{"bursty", "heavytail", "closedloop"}
	dispatchers := []string{"random", "roundrobin", "jsq", "leastwork"}
	caps := []float64{0, 9} // uncapped; binding 2-core budget
	for _, sc := range scenarios {
		for _, d := range dispatchers {
			for _, capW := range caps {
				name := sc + "/" + d
				if capW > 0 {
					name += "/capped"
				}
				run := func(t *testing.T, shards int) FleetResult {
					res, err := RunFleet(fleetConfig(t, sc, d, sockets, coresPer, 500, capW, shards))
					if err != nil {
						t.Fatal(err)
					}
					if res.Shards != shards {
						t.Fatalf("shard count %d, want %d", res.Shards, shards)
					}
					return res
				}
				t.Run(name, func(t *testing.T) {
					want := run(t, 1)
					for _, shards := range []int{2, sockets} {
						if !reflect.DeepEqual(run(t, shards).Sockets, want.Sockets) {
							t.Fatalf("shard=%d fleet result diverged from shard=1", shards)
						}
					}
				})
			}
		}
	}
}

// TestFleetSocketMatchesStandalone pins fleet semantics to the
// golden-pinned single-engine cluster path: every socket of a fleet run
// is deeply equal to running that socket's source and config through
// RunSource standalone. Sharding adds no simulation semantics of its own.
func TestFleetSocketMatchesStandalone(t *testing.T) {
	const sockets, coresPer, nPer = 3, 2, 800
	cfg := fleetConfig(t, "bursty", "jsq", sockets, coresPer, nPer, 0, 0)
	fleet, err := RunFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(fleet.Sockets) != sockets {
		t.Fatalf("got %d socket results, want %d", len(fleet.Sockets), sockets)
	}
	maxShards := runtime.GOMAXPROCS(0)
	if maxShards > sockets {
		maxShards = sockets
	}
	if fleet.Shards != maxShards {
		t.Fatalf("auto shard count %d, want GOMAXPROCS clamped to %d", fleet.Shards, maxShards)
	}
	for s := 0; s < sockets; s++ {
		solo, err := RunSource(cfg.NewSource(s), cfg.socketConfig(s))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fleet.Sockets[s], solo) {
			t.Fatalf("fleet socket %d diverged from standalone RunSource", s)
		}
	}
	// Distinct derived seeds: sockets must not replay each other's stream.
	if reflect.DeepEqual(fleet.Sockets[0].PerCore, fleet.Sockets[1].PerCore) {
		t.Fatal("sockets 0 and 1 served identical streams — seed derivation collapsed")
	}
}

// TestFleetAggregates pins the fleet-wide sums over sockets: EndTime is
// the latest socket EndTime, and TotalEnergyJ is both the sum of the
// socket totals and the fleet's active energy plus every core's idle
// energy.
func TestFleetAggregates(t *testing.T) {
	res, err := RunFleet(fleetConfig(t, "bursty", "jsq", 3, 2, 300, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	// The middle socket must end last, or neither taking the first nor
	// taking the last socket's end would be caught.
	first, mid, last := res.Sockets[0].EndTime, res.Sockets[1].EndTime, res.Sockets[2].EndTime
	if !(mid > first && mid > last) {
		t.Fatalf("socket end times %d, %d, %d: the middle socket no longer ends last", first, mid, last)
	}
	if got := res.EndTime(); got != mid {
		t.Fatalf("EndTime = %d, want the latest socket end %d", got, mid)
	}
	var sockets, idle float64
	for _, s := range res.Sockets {
		sockets += s.TotalEnergyJ()
		for _, c := range s.PerCore {
			idle += c.IdleEnergyJ
		}
	}
	total := res.TotalEnergyJ()
	if total != sockets {
		t.Fatalf("TotalEnergyJ = %v, want the socket sum %v", total, sockets)
	}
	if !(idle > 0) || math.Abs(total-(res.ActiveEnergyJ()+idle)) > 1e-12*total {
		t.Fatalf("TotalEnergyJ = %v, want active %v + idle %v", total, res.ActiveEnergyJ(), idle)
	}
}

// TestFleetCapTransparent checks the capping boundary fleet-wide: an
// unreachable cap leaves every socket's cores deeply equal to the
// uncapped fleet (the wiring is installed but never binds), while a
// binding cap throttles and accounts in every socket.
func TestFleetCapTransparent(t *testing.T) {
	uncapped, err := RunFleet(fleetConfig(t, "bursty", "jsq", 2, 2, 500, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	loose, err := RunFleet(fleetConfig(t, "bursty", "jsq", 2, 2, 500, math.Inf(1), 1))
	if err != nil {
		t.Fatal(err)
	}
	for s := range loose.Sockets {
		if !reflect.DeepEqual(loose.Sockets[s].PerCore, uncapped.Sockets[s].PerCore) {
			t.Fatalf("socket %d: non-binding cap perturbed the run", s)
		}
		if loose.Sockets[s].Capping == nil {
			t.Fatalf("socket %d: capped run reported no domain", s)
		}
	}
	tight, err := RunFleet(fleetConfig(t, "bursty", "jsq", 2, 2, 500, 9, 1))
	if err != nil {
		t.Fatal(err)
	}
	doms := tight.Capping()
	if len(doms) != 2 {
		t.Fatalf("fleet capping reported %d domains, want 2", len(doms))
	}
	for s, d := range doms {
		if d.PeakPowerW > 9+1e-9 {
			t.Fatalf("socket %d granted %.2f W over the 9 W cap", s, d.PeakPowerW)
		}
		if d.Rounds == 0 {
			t.Fatalf("socket %d: no allocation rounds under a binding cap", s)
		}
	}
}

// TestFleetValidation exercises the config errors, including that a
// failing socket reports deterministically (lowest socket index wins no
// matter which shard hits its error first).
func TestFleetValidation(t *testing.T) {
	good := fleetConfig(t, "bursty", "jsq", 2, 2, 100, 0, 1)

	bad := good
	bad.Sockets = 0
	if _, err := RunFleet(bad); err == nil {
		t.Fatal("0 sockets accepted")
	}
	bad = good
	bad.CoresPerSocket = 0
	if _, err := RunFleet(bad); err == nil {
		t.Fatal("0 cores per socket accepted")
	}
	bad = good
	bad.NewSource = nil
	if _, err := RunFleet(bad); err == nil {
		t.Fatal("nil NewSource accepted")
	}
	bad = good
	bad.CapW = math.NaN()
	if _, err := RunFleet(bad); err == nil {
		t.Fatal("NaN per-socket cap accepted")
	}
	checkLowestSocketError(t, good)
}

// checkLowestSocketError runs a 4-shard fleet whose sockets 1..3 all
// return a nil source. The reported error must name socket 1 whichever
// shard failed first, and carry the fleet socket prefix exactly once.
func checkLowestSocketError(t *testing.T, cfg FleetConfig) {
	t.Helper()
	cfg.Sockets, cfg.Shards = 4, 4
	inner := cfg.NewSource
	cfg.NewSource = func(s int) workload.Source {
		if s >= 1 {
			return nil
		}
		return inner(s)
	}
	_, err := RunFleet(cfg)
	if err == nil || err.Error() != "cluster: fleet socket 1: NewSource returned nil" {
		t.Fatalf("want the lowest-socket error with one prefix, got %v", err)
	}
}

// TestStreamingFleetConstantMemory is the fleet acceptance run, mirroring
// TestStreamingClusterConstantMemory: a multi-socket diurnal fleet with
// streamed completion logs finishes with total allocation independent of
// the request count — per-socket engines, cores and histograms are the
// only footprint, and the pooled tail comes from the merged histograms.
func TestStreamingFleetConstantMemory(t *testing.T) {
	nPer := 250_000
	if testing.Short() {
		nPer = 40_000
	}
	const sockets, coresPer = 8, 4
	cfg := fleetConfig(t, "diurnal", "jsq", sockets, coresPer, nPer, 0, 0)
	cfg.Core.DropCompletions = true

	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	res, err := RunFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&m1)

	if res.Served() != sockets*nPer {
		t.Fatalf("served %d of %d", res.Served(), sockets*nPer)
	}
	for s, sr := range res.Sockets {
		for i, c := range sr.PerCore {
			if len(c.Completions) != 0 {
				t.Fatalf("socket %d core %d retained %d completions", s, i, len(c.Completions))
			}
		}
	}
	if tail := res.TailNs(0.95, 0); tail <= 0 {
		t.Fatalf("fleet streamed tail %v", tail)
	}
	// Setup is O(sockets x cores): engines, cores, response histograms.
	// 1 MB per socket covers that comfortably while staying far below
	// what any per-request retention would cost at 2M requests. (The race
	// detector instruments allocations; the byte guard only holds
	// uninstrumented.)
	if delta := m1.TotalAlloc - m0.TotalAlloc; !raceEnabled && delta > sockets<<20 {
		t.Errorf("fleet run allocated %.2f MB total (%.2f B/request) — memory not independent of request count",
			float64(delta)/1e6, float64(delta)/float64(res.Served()))
	}
}
