package cluster

import (
	"reflect"
	"testing"

	"rubik/internal/capping"
	rubikcore "rubik/internal/core"
	"rubik/internal/queueing"
	"rubik/internal/sim"
	"rubik/internal/workload"
)

// rubikFleetConfig is fleetConfig with per-core Rubik controllers tuned
// so small test fleets actually exercise the rebuild path: a 2 ms table
// refresh (vs the paper's 100 ms, which a short run never reaches) and a
// small profiling window, so ticks during idle stretches see an
// unchanged window and can hit the rebuild cache.
func rubikFleetConfig(t *testing.T, scenario, dispatcher string, sockets, coresPer, nPer, shards int) FleetConfig {
	t.Helper()
	cfg := fleetConfig(t, scenario, dispatcher, sockets, coresPer, nPer, 0, shards)
	cfg.NewPolicy = func(int, int) (queueing.Policy, error) {
		rcfg := rubikcore.DefaultConfig(500_000)
		rcfg.UpdatePeriod = 2 * sim.Millisecond
		rcfg.MinSamples = 16
		rcfg.HistoryCap = 256
		return rubikcore.New(rcfg)
	}
	return cfg
}

// TestFleetTableCacheInvariance is the cache's end-to-end acceptance
// property: across scenario shapes and dispatchers, and under flat and
// hierarchical power caps, a fleet run with the rebuild cache (the
// default) produces per-socket results deeply equal to the same fleet
// with caching disabled — the cache is a pure throughput optimization,
// invisible in every simulated quantity — while actually being consulted
// (a never-probed cache would pass vacuously). The capped cells pin that
// capped cores' controllers are attached to the cache too.
func TestFleetTableCacheInvariance(t *testing.T) {
	const sockets, coresPer, nPer = 2, 2, 600
	type cell struct {
		name string
		cfg  func(t *testing.T) FleetConfig
	}
	var cells []cell
	for _, sc := range []string{"bursty", "heavytail", "closedloop"} {
		for _, d := range []string{"jsq", "roundrobin"} {
			cells = append(cells, cell{sc + "/" + d, func(t *testing.T) FleetConfig {
				return rubikFleetConfig(t, sc, d, sockets, coresPer, nPer, 2)
			}})
		}
	}
	cells = append(cells,
		cell{"bursty/jsq/capped", func(t *testing.T) FleetConfig {
			cfg := rubikFleetConfig(t, "bursty", "jsq", sockets, coresPer, nPer, 2)
			cfg.CapW = 9 // binding 2-core budget
			return cfg
		}},
		cell{"bursty/jsq/hier", func(t *testing.T) FleetConfig {
			cfg := rubikFleetConfig(t, "bursty", "jsq", sockets, coresPer, nPer, 2)
			cfg.Hierarchy = &capping.HierarchySpec{Levels: []capping.LevelSpec{
				{Name: "rack", Nodes: 1, CapW: 20},
				{Name: "pdu", Nodes: 2, Oversub: 1.1},
			}}
			cfg.Epoch = 5 * sim1ms
			return cfg
		}},
	)
	// Each cell's cache outcomes, pinned: a faster fingerprint or a
	// builder that reuses an unchanged window's binning must leave every
	// probe where it was. No cell collides. Where work stealing places
	// the two sockets decides evictions in a flat fleet: evictions[0]
	// when one shard's cache serves both, evictions[1] when each has
	// its own. A hierarchical fleet's caches are per socket.
	type pin struct {
		hits, misses int64
		evictions    [2]int64
	}
	pins := map[string]pin{
		"bursty/jsq":            {0, 176, [2]int64{112, 48}},
		"bursty/roundrobin":     {0, 177, [2]int64{113, 49}},
		"heavytail/jsq":         {1, 173, [2]int64{109, 45}},
		"heavytail/roundrobin":  {2, 170, [2]int64{106, 42}},
		"closedloop/jsq":        {9, 200, [2]int64{136, 72}},
		"closedloop/roundrobin": {7, 202, [2]int64{138, 74}},
		"bursty/jsq/capped":     {1, 175, [2]int64{111, 47}},
		"bursty/jsq/hier":       {1, 175, [2]int64{47, 47}},
	}
	var hits int64
	for _, c := range cells {
		t.Run(c.name, func(t *testing.T) {
			off := c.cfg(t)
			off.TableCacheEntries = -1
			want, err := RunFleet(off)
			if err != nil {
				t.Fatal(err)
			}
			if st := want.TableCache; st.Lookups() != 0 {
				t.Fatalf("disabled cache reported lookups: %+v", st)
			}

			got, err := RunFleet(c.cfg(t))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Sockets, want.Sockets) {
				t.Fatal("cached fleet result diverged from uncached")
			}
			if !reflect.DeepEqual(got.Hierarchy, want.Hierarchy) {
				t.Fatal("cached fleet hierarchy stats diverged from uncached")
			}
			if st := got.TableCache; st.Lookups() == 0 {
				t.Fatal("default-on cache was never consulted")
			}
			st, pinned := got.TableCache, pins[c.name]
			if st.Hits != pinned.hits || st.Misses != pinned.misses || st.Collisions != 0 ||
				(st.Evictions != pinned.evictions[0] && st.Evictions != pinned.evictions[1]) {
				t.Fatalf("cache stats %+v, want %d hits, %d misses, 0 collisions and %d or %d evictions",
					st, pinned.hits, pinned.misses, pinned.evictions[0], pinned.evictions[1])
			}
			hits += got.TableCache.Hits
		})
	}
	if hits == 0 {
		t.Fatal("no cell ever hit the cache")
	}
}

// TestFleetTableCacheExplicitSize checks the TableCacheEntries contract:
// an explicit bound is honored per shard, and shard-count invariance
// holds with a cache so small it evicts constantly.
func TestFleetTableCacheExplicitSize(t *testing.T) {
	const sockets, coresPer, nPer = 3, 2, 500
	want, err := RunFleet(rubikFleetConfig(t, "bursty", "jsq", sockets, coresPer, nPer, 1))
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{2, sockets} {
		cfg := rubikFleetConfig(t, "bursty", "jsq", sockets, coresPer, nPer, shards)
		cfg.TableCacheEntries = 1 // evict on every distinct rebuild
		got, err := RunFleet(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Sockets, want.Sockets) {
			t.Fatalf("shard=%d size-1-cache fleet diverged", shards)
		}
	}
}

// TestFleetWorkStealingSkewed pins the scheduler rewrite: per-socket
// request counts are pathologically skewed (one socket carries 20x the
// work), which under the old static round-robin partition serialized the
// heavy socket's shard. Stealing must leave results deeply equal across
// shard counts anyway — the schedule moves, the simulation does not.
// The fixed CI race pass (-run 'TestFleet') covers the claim-counter
// and results-slice sharing under the detector.
func TestFleetWorkStealingSkewed(t *testing.T) {
	const sockets, coresPer = 4, 2
	perSocket := []int{4000, 200, 200, 200}
	build := func(shards int) FleetConfig {
		cfg := fleetConfig(t, "bursty", "jsq", sockets, coresPer, perSocket[0], 0, shards)
		sc, err := workload.ScenarioByName("bursty")
		if err != nil {
			t.Fatal(err)
		}
		app := workload.Masstree()
		cfg.NewSource = func(s int) workload.Source {
			return sc.New(app, 0.5*float64(coresPer), perSocket[s], workload.ShardSeed(7, s))
		}
		return cfg
	}
	want, err := RunFleet(build(1))
	if err != nil {
		t.Fatal(err)
	}
	for s, n := range perSocket {
		if got := want.Sockets[s].Served(); got != n {
			t.Fatalf("socket %d served %d, want %d", s, got, n)
		}
	}
	for _, shards := range []int{2, sockets} {
		got, err := RunFleet(build(shards))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Sockets, want.Sockets) {
			t.Fatalf("shard=%d skewed fleet diverged from shard=1", shards)
		}
	}
}
