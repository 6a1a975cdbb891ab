package datacenter

import (
	"fmt"
	"testing"

	"rubik/internal/cluster"
	"rubik/internal/policy"
	"rubik/internal/queueing"
	"rubik/internal/sim"
	"rubik/internal/workload"
)

// smallConfig shrinks the fleet so tests stay fast while keeping every
// mechanism (bounds, oracle frequencies, colocated cores, deficit
// provisioning) active.
func smallConfig() Config {
	// Keep the paper's ~1:1 LC:batch server ratio (1000:1000): the
	// colocation savings come from absorbing the batch fleet's idle power,
	// so a skewed ratio would distort the comparison.
	cfg := DefaultConfig()
	cfg.LCServersPerApp = 20 // 5 apps -> 100 LC servers
	cfg.BatchServersPerMix = 34
	cfg.NMixes = 3 // -> 102 batch servers
	cfg.RequestsPerCore = 600
	cfg.BoundRequests = 1500
	return cfg
}

func TestNewModelValidation(t *testing.T) {
	bad := DefaultConfig()
	bad.CoresPerServer = 0
	if _, err := NewModel(bad); err == nil {
		t.Fatal("invalid config must error")
	}
}

func TestModelBounds(t *testing.T) {
	m, err := NewModel(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, app := range m.apps {
		if m.Bound(app.Name) <= 0 {
			t.Fatalf("%s has no bound", app.Name)
		}
	}
	// moses's bound dwarfs masstree's (longest vs short requests).
	if m.Bound("moses") < 5*m.Bound("masstree") {
		t.Fatalf("bounds implausible: moses %v, masstree %v",
			m.Bound("moses"), m.Bound("masstree"))
	}
}

func TestSegregatedFleet(t *testing.T) {
	cfg := smallConfig()
	m, err := NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	seg, err := m.Segregated(0.3)
	if err != nil {
		t.Fatal(err)
	}
	if seg.LCServers != 5*cfg.LCServersPerApp {
		t.Fatalf("LC servers = %d", seg.LCServers)
	}
	if seg.BatchServers != cfg.NMixes*cfg.BatchServersPerMix {
		t.Fatalf("batch servers = %d", seg.BatchServers)
	}
	if seg.LCPowerW <= 0 || seg.BatchPowerW <= 0 {
		t.Fatalf("powers: %+v", seg)
	}
	if len(seg.BatchUnitsPerSec) == 0 {
		t.Fatal("no batch throughput recorded")
	}
	// LC power falls as load falls (StaticOracle picks lower frequencies
	// and cores idle more).
	seg10, err := m.Segregated(0.1)
	if err != nil {
		t.Fatal(err)
	}
	if seg10.LCPowerW >= seg.LCPowerW {
		t.Fatalf("segregated LC power did not fall with load: %v vs %v",
			seg10.LCPowerW, seg.LCPowerW)
	}
	// Batch side is load-independent.
	if seg10.BatchPowerW != seg.BatchPowerW {
		t.Fatalf("segregated batch power changed with LC load")
	}
}

func TestSegregatedClusterSim(t *testing.T) {
	// The analytic segregated LC power must agree with the cluster-
	// simulated oracle to first order (same oracle frequencies, same
	// offered load — the simulation only adds real queueing and idle-time
	// structure), and the oracle must remain load-monotonic.
	m, err := NewModel(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	ana, err := m.Segregated(0.3)
	if err != nil {
		t.Fatal(err)
	}
	simW := clusterSegregatedLCPowerW(t, m, 0.3)
	if simW <= 0 {
		t.Fatalf("cluster-simulated LC power %v", simW)
	}
	if ratio := simW / ana.LCPowerW; ratio < 0.7 || ratio > 1.3 {
		t.Errorf("cluster-simulated LC power %.0f W vs analytic %.0f W (ratio %.2f)",
			simW, ana.LCPowerW, ratio)
	}
	if sim10 := clusterSegregatedLCPowerW(t, m, 0.1); sim10 >= simW {
		t.Errorf("cluster-simulated LC power did not fall with load: %v vs %v", sim10, simW)
	}
}

// clusterSegregatedLCPowerW is the test oracle for Segregated's LC power:
// every app's servers at the same StaticOracle frequency, each server's
// power taken from clusterServerPower instead of the analytic per-core
// extrapolation.
func clusterSegregatedLCPowerW(t *testing.T, m *Model, load float64) float64 {
	t.Helper()
	cfg := m.cfg
	rcfg := policy.ReplayConfig{Power: cfg.Power, WakeLatency: 5 * sim.Microsecond}
	var total float64
	for _, app := range m.apps {
		tr := workload.GenerateAtLoad(app, load, cfg.RequestsPerCore, cfg.Seed+13)
		so, err := policy.StaticOracle(tr, cfg.Grid, m.bounds[app.Name], 0.95, rcfg)
		if err != nil {
			t.Fatal(err)
		}
		serverPower, err := clusterServerPower(m, app, load, so.MHz)
		if err != nil {
			t.Fatal(err)
		}
		total += float64(cfg.LCServersPerApp) * serverPower
	}
	return total
}

// clusterServerPower estimates one segregated LC server's power by
// actually simulating it: CoresPerServer cores at the StaticOracle
// frequency behind a JSQ dispatcher, fed the server's aggregate Poisson
// stream. Unlike the per-core extrapolation it captures cross-core load
// imbalance and the real idle-time distribution.
func clusterServerPower(m *Model, app workload.LCApp, load float64, staticMHz int) (float64, error) {
	cfg := m.cfg
	n := cfg.RequestsPerCore * cfg.CoresPerServer
	tr := workload.GenerateAtLoad(app, load*float64(cfg.CoresPerServer), n, cfg.Seed+13)
	res, err := cluster.Run(tr, cluster.Config{
		Cores:      cfg.CoresPerServer,
		Dispatcher: cluster.NewJSQ(),
		Core: queueing.Config{
			Grid:              cfg.Grid,
			Power:             cfg.Power,
			TransitionLatency: cfg.TransitionLatency,
			WakeLatency:       5 * sim.Microsecond,
			InitialMHz:        staticMHz,
		},
		NewPolicy: func(int) (queueing.Policy, error) {
			return queueing.FixedPolicy{MHz: staticMHz}, nil
		},
	})
	if err != nil {
		return 0, err
	}
	durS := float64(res.EndTime) / 1e9
	if durS <= 0 {
		return 0, fmt.Errorf("datacenter: empty cluster simulation for %s", app.Name)
	}
	// Unlike the analytic per-core power, this is already the whole core
	// complex: TotalEnergyJ sums all CoresPerServer cores.
	coresPower := res.TotalEnergyJ() / durS
	return coresPower + cfg.System.NonCorePower(res.MeanBusyCores()), nil
}

func TestColocatedBeatsSegregated(t *testing.T) {
	// The paper's headline (Fig. 16): the colocated datacenter uses less
	// power and fewer servers at matched batch throughput, with the gap
	// widest at low LC load.
	cfg := smallConfig()
	m, err := NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, load := range []float64{0.1, 0.3} {
		seg, err := m.Segregated(load)
		if err != nil {
			t.Fatal(err)
		}
		col, err := m.Colocated(load)
		if err != nil {
			t.Fatal(err)
		}
		if col.TotalPowerW() >= seg.TotalPowerW() {
			t.Errorf("load %.1f: colocated power %.0f W not below segregated %.0f W",
				load, col.TotalPowerW(), seg.TotalPowerW())
		}
		if col.TotalServers() >= seg.TotalServers() {
			t.Errorf("load %.1f: colocated servers %d not below segregated %d",
				load, col.TotalServers(), seg.TotalServers())
		}
		// Fixed-work: batch throughput matched per app.
		for name, target := range seg.BatchUnitsPerSec {
			if col.BatchUnitsPerSec[name] < target*0.999 {
				t.Errorf("load %.1f: %s throughput %f below segregated %f",
					load, name, col.BatchUnitsPerSec[name], target)
			}
		}
		// RubikColoc must hold the tails while doing it. The slack covers
		// small-sample noise: this quick config estimates p95 from only a
		// few hundred requests per (app, partner) pair; at realistic trace
		// lengths the worst pair sits well below the bound (see the
		// fig15/fig16 experiment drivers for full-fidelity runs).
		if col.WorstTailRel > 1.15 {
			t.Errorf("load %.1f: worst colocated tail %.2fx bound", load, col.WorstTailRel)
		}
	}
}

func TestColocatedNeedsMoreBatchServersAtHighLoad(t *testing.T) {
	cfg := smallConfig()
	m, err := NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lo, err := m.Colocated(0.1)
	if err != nil {
		t.Fatal(err)
	}
	hi, err := m.Colocated(0.5)
	if err != nil {
		t.Fatal(err)
	}
	// Higher LC load leaves fewer idle cycles to donate, so more
	// batch-only servers are needed.
	if hi.BatchServers < lo.BatchServers {
		t.Fatalf("batch servers fell with load: %d (50%%) vs %d (10%%)",
			hi.BatchServers, lo.BatchServers)
	}
}

func TestFleetResultHelpers(t *testing.T) {
	f := FleetResult{LCPowerW: 10, BatchPowerW: 5, LCServers: 2, BatchServers: 1}
	if f.TotalPowerW() != 15 {
		t.Fatalf("TotalPowerW = %v", f.TotalPowerW())
	}
	if f.TotalServers() != 3 {
		t.Fatalf("TotalServers = %v", f.TotalServers())
	}
}

func TestStableHashDeterministic(t *testing.T) {
	if stableHash("abc") != stableHash("abc") {
		t.Fatal("hash not deterministic")
	}
	if stableHash("abc") == stableHash("abd") {
		t.Fatal("suspicious collision on near-identical keys")
	}
	if stableHash("x") < 0 {
		t.Fatal("hash must be non-negative")
	}
}
