package cluster

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"rubik/internal/capping"
	"rubik/internal/workload"
)

// hierFleetConfig is fleetConfig plus a budget tree: per-socket load is
// skewed (socket s drives 0.3+0.4·s/(n-1) load per core) so a
// demand-aware allocator has something to move between sockets.
func hierFleetConfig(t *testing.T, scenario string, sockets, coresPer, nPer, shards int, spec capping.HierarchySpec, epoch int64) FleetConfig {
	t.Helper()
	cfg := fleetConfig(t, scenario, "jsq", sockets, coresPer, nPer, 0, shards)
	app := workload.Masstree()
	sc, err := workload.ScenarioByName(scenario)
	if err != nil {
		t.Fatal(err)
	}
	cfg.NewSource = func(s int) workload.Source {
		load := 0.3
		if sockets > 1 {
			load += 0.4 * float64(s) / float64(sockets-1)
		}
		return sc.New(app, load*float64(coresPer), nPer, workload.ShardSeed(7, s))
	}
	cfg.Hierarchy = &spec
	cfg.Epoch = sim1ms * epoch
	return cfg
}

const sim1ms = 1_000_000 // simulated ns per ms

// TestFleetHierShardInvariance extends the tentpole shard property to
// hierarchical runs: epoch barriers are the only cross-socket coupling,
// they run sequentially in socket order, and new caps land as events at
// exactly the barrier time — so shard=N must stay DeepEqual shard=1,
// budget tree included.
func TestFleetHierShardInvariance(t *testing.T) {
	const sockets, coresPer, nPer = 3, 2, 500
	spec := capping.HierarchySpec{Levels: []capping.LevelSpec{
		{Name: "rack", Nodes: 1, CapW: 30},
		{Name: "pdu", Nodes: 2, Oversub: 1.1},
	}}
	for _, sc := range []string{"bursty", "heavytail"} {
		t.Run(sc, func(t *testing.T) {
			want, err := RunFleet(hierFleetConfig(t, sc, sockets, coresPer, nPer, 1, spec, 5))
			if err != nil {
				t.Fatal(err)
			}
			if want.Hierarchy == nil {
				t.Fatal("hierarchical run returned no hierarchy stats")
			}
			for _, shards := range []int{2, sockets} {
				got, err := RunFleet(hierFleetConfig(t, sc, sockets, coresPer, nPer, shards, spec, 5))
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got.Sockets, want.Sockets) {
					t.Fatalf("shard=%d hierarchical sockets diverged from shard=1", shards)
				}
				if !reflect.DeepEqual(got.Hierarchy, want.Hierarchy) {
					t.Fatalf("shard=%d hierarchy stats diverged from shard=1", shards)
				}
				if got.TableCache != want.TableCache {
					t.Fatalf("shard=%d cache stats diverged: %+v vs %+v", shards, got.TableCache, want.TableCache)
				}
			}
		})
	}
}

// TestFleetHierDegenerateMatchesFlat pins the bridge between the two
// kinds of fleet: a one-level static tree whose root holds exactly
// sockets x flat-cap watts re-derives the flat per-socket cap at every
// barrier (n·c/n is float-exact), applyCap no-ops, and the whole run —
// DomainStats and all — is bit-identical to flat per-socket capping.
func TestFleetHierDegenerateMatchesFlat(t *testing.T) {
	const sockets, coresPer, nPer = 3, 2, 500
	const flatCapW = 9.0 // binding 2-core budget, float-exact under /3
	t.Run("drained", func(t *testing.T) {
		cfg := fleetConfig(t, "bursty", "jsq", sockets, coresPer, nPer, flatCapW, 1)
		flat, err := RunFleet(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Hierarchy = &capping.HierarchySpec{Levels: []capping.LevelSpec{
			{Name: "rack", Nodes: 1, CapW: sockets * flatCapW, Alloc: capping.StaticLevel{}},
		}}
		cfg.Epoch = 2 * sim1ms
		hier, err := RunFleet(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(hier.Sockets, flat.Sockets) {
			t.Fatal("degenerate one-level static hierarchy diverged from flat per-socket capping")
		}
		if hier.Hierarchy == nil || hier.Hierarchy.LeafCapChanges != 0 {
			t.Fatalf("degenerate hierarchy changed caps: %+v", hier.Hierarchy)
		}
		for s, ds := range hier.Capping() {
			if ds.CapW != flatCapW {
				t.Fatalf("socket %d ended on cap %v W, want flat %v W", s, ds.CapW, flatCapW)
			}
		}
	})
}

// TestFleetHierReallocates exercises the demand-following path: a tight
// waterfilled rack over skewed sockets must move watts at least once,
// keep every socket's cap within the tree's leaf bounds, and account its
// rounds in the stats.
func TestFleetHierReallocates(t *testing.T) {
	const sockets, coresPer, nPer = 4, 2, 600
	spec := capping.HierarchySpec{Levels: []capping.LevelSpec{
		{Name: "rack", Nodes: 1, CapW: 34},
		{Name: "pdu", Nodes: 2},
	}}
	res, err := RunFleet(hierFleetConfig(t, "bursty", sockets, coresPer, nPer, 2, spec, 3))
	if err != nil {
		t.Fatal(err)
	}
	hs := res.Hierarchy
	if hs == nil {
		t.Fatal("no hierarchy stats")
	}
	if hs.Reallocations < 2 {
		t.Fatalf("only %d reallocation rounds over a multi-epoch run", hs.Reallocations)
	}
	if hs.LeafCapChanges == 0 {
		t.Fatal("skewed demand under a tight rack budget changed no socket cap")
	}
	wantLevels := []string{"rack", "pdu", "socket"}
	if len(hs.Levels) != len(wantLevels) {
		t.Fatalf("got %d stat levels, want %d", len(hs.Levels), len(wantLevels))
	}
	for i, ls := range hs.Levels {
		if ls.Name != wantLevels[i] {
			t.Fatalf("level %d named %q, want %q", i, ls.Name, wantLevels[i])
		}
	}
	// Per-round budget safety (no oversubscription anywhere): the rack
	// never grants over its cap, and every round's socket grants divide a
	// rack grant, so the mean socket grant times the socket count fits the
	// rack budget too. (Final per-socket CapW values can legitimately sum
	// over the budget: a drained socket keeps its last cap on the books
	// while the tree hands its watts to the sockets still running.)
	if rack := hs.Levels[0]; rack.MaxGrantW > 34+1e-9 {
		t.Fatalf("rack granted %v W over its 34 W cap", rack.MaxGrantW)
	}
	if leaf := hs.Levels[len(hs.Levels)-1]; float64(sockets)*leaf.AvgGrantW > 34+1e-9 {
		t.Fatalf("mean socket grants sum to %v W over the 34 W rack budget", float64(sockets)*leaf.AvgGrantW)
	}
	for s, ds := range res.Capping() {
		if ds.CapW <= 0 {
			t.Fatalf("socket %d ended on non-positive cap %v", s, ds.CapW)
		}
	}
}

// TestFleetHierValidation pins the config seams of the hierarchical path.
func TestFleetHierValidation(t *testing.T) {
	base := func() FleetConfig {
		return fleetConfig(t, "bursty", "jsq", 2, 2, 50, 0, 1)
	}

	cfg := base()
	cfg.Epoch = sim1ms
	if _, err := RunFleet(cfg); err == nil || !strings.Contains(err.Error(), "Epoch set without a Hierarchy") {
		t.Fatalf("Epoch without Hierarchy: err = %v", err)
	}

	cfg = base()
	cfg.Hierarchy = &capping.HierarchySpec{Levels: []capping.LevelSpec{{Name: "rack", Nodes: 1, CapW: 40}}}
	if _, err := RunFleet(cfg); err == nil || !strings.Contains(err.Error(), "positive Epoch") {
		t.Fatalf("Hierarchy without Epoch: err = %v", err)
	}

	cfg = base()
	cfg.Hierarchy = &capping.HierarchySpec{Levels: []capping.LevelSpec{{Name: "rack", Nodes: 1}}}
	cfg.Epoch = sim1ms
	if _, err := RunFleet(cfg); err == nil {
		t.Fatal("uncapped root accepted")
	}

	nan := math.NaN()
	for _, c := range []struct {
		name   string
		capW   float64
		levels []capping.LevelSpec
	}{
		{"NaN per-socket ceiling", nan, []capping.LevelSpec{{Name: "rack", Nodes: 1, CapW: 40}}},
		{"NaN PDU cap", 0, []capping.LevelSpec{{Name: "rack", Nodes: 1, CapW: 40}, {Name: "pdu", Nodes: 2, CapW: nan}}},
		{"NaN PDU oversubscription", 0, []capping.LevelSpec{{Name: "rack", Nodes: 1, CapW: 40}, {Name: "pdu", Nodes: 2, Oversub: nan}}},
	} {
		cfg = base()
		cfg.CapW = c.capW
		cfg.Hierarchy = &capping.HierarchySpec{Levels: c.levels}
		cfg.Epoch = sim1ms
		if _, err := RunFleet(cfg); err == nil {
			t.Errorf("%s accepted", c.name)
		}
	}

	cfg = base()
	cfg.Hierarchy = &capping.HierarchySpec{Levels: []capping.LevelSpec{{Name: "rack", Nodes: 1, CapW: 40}}}
	cfg.Epoch = sim1ms
	checkLowestSocketError(t, cfg)
}

// TestSocketPendingEventBound pins the pending-event population the
// engine's flat sorted array is sized for: a socket registers one handle
// per core for each of completion, controller tick and DVFS switch, one
// for the arrival feeder and one for a barrier-armed cap, and a handle
// holds at most one pending firing. A 6-core capped Rubik socket at high
// load with a cap change armed mid-run must never hold more.
func TestSocketPendingEventBound(t *testing.T) {
	const cores = 6
	app := workload.Masstree()
	cfg := rubikClusterConfig(t, cores, 500_000)
	cfg.CapW = 14
	s, err := newSocketSim(workload.NewLoadSource(app, 0.9*cores, 3000, 5), cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.scheduleCap(2_000_000, 10)
	peak := s.eng.Pending()
	for s.eng.Step() {
		peak = max(peak, s.eng.Pending())
	}
	if limit := 3*cores + 2; peak > limit {
		t.Fatalf("peak pending events %d, want <= 3*cores+2 = %d", peak, limit)
	}
	if peak <= cores {
		t.Fatalf("peak pending events %d: the run never kept more than one event per core pending", peak)
	}
	res, err := s.result()
	if err != nil {
		t.Fatal(err)
	}
	if res.Served() != 3000 {
		t.Fatalf("served %d of 3000", res.Served())
	}
	if res.Capping == nil || res.Capping.CapW != 10 {
		t.Fatalf("armed cap never applied: %+v", res.Capping)
	}
}
