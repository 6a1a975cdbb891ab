// Package datacenter models the fleet-level comparison of paper Sec. 7.2
// (Figs. 14 and 16): a segregated datacenter — 1000 latency-critical
// servers (200 per app, 6 cores each, frequencies set by StaticOracle) plus
// 1000 batch servers (50 per 6-app mix, each app at its optimal
// throughput-per-watt frequency) — versus a colocated datacenter where the
// 1000 LC servers also absorb batch work under RubikColoc and just enough
// batch-only servers are provisioned to match the segregated datacenter's
// per-app batch throughput.
package datacenter

import (
	"fmt"
	"sort"

	"rubik/internal/coloc"
	"rubik/internal/cpu"
	"rubik/internal/policy"
	"rubik/internal/sim"
	"rubik/internal/workload"
)

// Config parameterizes the fleet model.
type Config struct {
	// LCServersPerApp is the number of LC servers per application
	// (paper: 200, 5 apps -> 1000 servers).
	LCServersPerApp int
	// BatchServersPerMix is the number of batch servers per mix
	// (paper: 50, 20 mixes -> 1000 servers).
	BatchServersPerMix int
	// CoresPerServer matches the simulated CMP (paper: 6).
	CoresPerServer int
	// NMixes is the number of random batch mixes (paper: 20).
	NMixes int
	// RequestsPerCore is the LC trace length used to estimate per-core
	// steady-state behaviour.
	RequestsPerCore int
	// BoundRequests is the trace length used to derive tail bounds.
	BoundRequests int
	Seed          int64

	Grid              cpu.Grid
	Power             cpu.PowerModel
	System            cpu.SystemPower
	TransitionLatency sim.Time
	Interference      coloc.Interference
}

// DefaultConfig returns the paper's datacenter setup.
func DefaultConfig() Config {
	return Config{
		LCServersPerApp:    200,
		BatchServersPerMix: 50,
		CoresPerServer:     6,
		NMixes:             20,
		RequestsPerCore:    3000,
		BoundRequests:      5000,
		Seed:               1,
		Grid:               cpu.DefaultGrid(),
		Power:              cpu.DefaultPowerModel(),
		System:             cpu.DefaultSystemPower(),
		TransitionLatency:  4 * sim.Microsecond,
		Interference:       coloc.DefaultInterference(),
	}
}

// FleetResult describes one datacenter variant at one LC load.
type FleetResult struct {
	// PowerW splits total power into the LC/colocated servers and the
	// batch-only servers (the hatched split of Fig. 16).
	LCPowerW    float64
	BatchPowerW float64
	// Servers splits the server count the same way.
	LCServers    int
	BatchServers int
	// BatchUnitsPerSec is the aggregate batch throughput per app name.
	BatchUnitsPerSec map[string]float64
	// WorstTailRel is the worst per-(app,partner) tail relative to the
	// app's bound (colocated only; 0 for segregated).
	WorstTailRel float64
}

// TotalPowerW returns the fleet's total power.
func (f FleetResult) TotalPowerW() float64 { return f.LCPowerW + f.BatchPowerW }

// TotalServers returns the fleet's total server count.
func (f FleetResult) TotalServers() int { return f.LCServers + f.BatchServers }

// Model precomputes the pieces shared across loads: apps, mixes, bounds and
// the optimal-TPW batch frequencies.
type Model struct {
	cfg    Config
	apps   []workload.LCApp
	mixes  [][]workload.BatchApp
	bounds map[string]float64 // per-app tail bound (ns)
	tpw    map[string]int     // per-batch-app optimal TPW frequency
}

// NewModel derives the per-app latency bounds (p95 of fixed-nominal at 50%
// load, as everywhere in the paper) and batch TPW frequencies.
func NewModel(cfg Config) (*Model, error) {
	if cfg.CoresPerServer <= 0 || cfg.NMixes <= 0 {
		return nil, fmt.Errorf("datacenter: invalid config %+v", cfg)
	}
	m := &Model{
		cfg:    cfg,
		apps:   workload.Apps(),
		mixes:  workload.Mixes(cfg.NMixes, cfg.CoresPerServer, cfg.Seed),
		bounds: map[string]float64{},
		tpw:    map[string]int{},
	}
	rcfg := policy.ReplayConfig{Power: cfg.Power, WakeLatency: 5 * sim.Microsecond}
	for _, app := range m.apps {
		tr := workload.GenerateAtLoad(app, 0.5, cfg.BoundRequests, cfg.Seed+7)
		rep, err := policy.Replay(tr, policy.UniformAssignment(len(tr.Requests), cpu.NominalMHz), rcfg)
		if err != nil {
			return nil, err
		}
		m.bounds[app.Name] = rep.TailNs(0.95)
	}
	for _, b := range workload.BatchPool() {
		m.tpw[b.Name] = b.OptimalTPWFreq(cfg.Grid, cfg.Power)
	}
	return m, nil
}

// Bound returns the latency bound for an app.
func (m *Model) Bound(app string) float64 { return m.bounds[app] }

// Segregated evaluates the segregated datacenter at an LC load. Each LC
// server's power is extrapolated from one core's StaticOracle replay
// (its busy fraction at the oracle frequency), the estimate Fig. 16
// uses; TestSegregatedClusterSim checks it against a simulated
// CoresPerServer-core cluster.
func (m *Model) Segregated(load float64) (FleetResult, error) {
	cfg := m.cfg
	out := FleetResult{BatchUnitsPerSec: map[string]float64{}}
	rcfg := policy.ReplayConfig{Power: cfg.Power, WakeLatency: 5 * sim.Microsecond}

	// LC servers: StaticOracle per app at this load.
	for _, app := range m.apps {
		tr := workload.GenerateAtLoad(app, load, cfg.RequestsPerCore, cfg.Seed+13)
		so, err := policy.StaticOracle(tr, cfg.Grid, m.bounds[app.Name], 0.95, rcfg)
		if err != nil {
			return FleetResult{}, err
		}
		duration := float64(so.Result.Dones[len(so.Result.Dones)-1])
		busyNs := 0.0
		for _, r := range tr.Requests {
			busyNs += r.ServiceNs(so.MHz)
		}
		busyFrac := busyNs / duration
		if busyFrac > 1 {
			busyFrac = 1
		}
		corePower := cfg.Power.ActivePower(so.MHz)*busyFrac + cfg.Power.SleepPower()*(1-busyFrac)
		serverPower := float64(cfg.CoresPerServer)*corePower +
			cfg.System.NonCorePower(float64(cfg.CoresPerServer)*busyFrac)
		out.LCPowerW += float64(cfg.LCServersPerApp) * serverPower
		out.LCServers += cfg.LCServersPerApp
	}

	// Batch servers: every core busy at its app's TPW-optimal frequency.
	for _, mix := range m.mixes {
		var serverPower float64
		for _, b := range mix {
			f := m.tpw[b.Name]
			serverPower += b.PowerW(f, cfg.Power)
			out.BatchUnitsPerSec[b.Name] += float64(cfg.BatchServersPerMix) * b.UnitsPerSec(f)
		}
		serverPower += cfg.System.NonCorePower(float64(cfg.CoresPerServer))
		out.BatchPowerW += float64(cfg.BatchServersPerMix) * serverPower
		out.BatchServers += cfg.BatchServersPerMix
	}
	return out, nil
}

// coreKey caches colocated core simulations by (app, batch partner); the
// result is independent of which mix the pairing appears in.
type coreKey struct {
	app   string
	batch string
}

type coreEval struct {
	powerW    float64 // average core power (LC + batch occupancy)
	unitsPerS float64 // batch throughput achieved in the gaps
	tailRel   float64 // LC tail relative to the bound
}

// Colocated evaluates the RubikColoc datacenter at an LC load: the LC
// servers also run batch work, and extra batch-only servers make up the
// per-app batch-throughput deficit against the segregated baseline
// (fixed-work comparison, paper Sec. 7).
func (m *Model) Colocated(load float64) (FleetResult, error) {
	cfg := m.cfg
	seg, err := m.Segregated(load)
	if err != nil {
		return FleetResult{}, err
	}

	cache := map[coreKey]coreEval{}
	evalCore := func(app workload.LCApp, b workload.BatchApp) (coreEval, error) {
		key := coreKey{app: app.Name, batch: b.Name}
		if ev, ok := cache[key]; ok {
			return ev, nil
		}
		bound := m.bounds[app.Name]
		// Scale the trace so the simulation spans at least ~2 s (Rubik's
		// rolling feedback needs multiple windows to settle — decisive for
		// short-request apps like specjbb) but at most ~12 s (so
		// long-request apps like moses do not multiply Rubik's periodic
		// table rebuilds).
		n := cfg.RequestsPerCore
		if minN := int(2e9 * load / app.MeanServiceNsAtNominal()); n < minN {
			n = minN
		}
		if maxN := int(12e9 * load / app.MeanServiceNsAtNominal()); n > maxN {
			n = maxN
		}
		if n < 300 {
			n = 300
		}
		// A one-core RubikColoc server: the pairing's LC stream under the
		// colocated Rubik configuration, batch in the gaps.
		sr, err := coloc.RunRubikColocServer(coloc.ServerConfig{
			App:               app,
			Mix:               []workload.BatchApp{b},
			Load:              load,
			RequestsPerCore:   n,
			Seed:              cfg.Seed + stableHash(key.app+key.batch),
			BoundNs:           bound,
			Grid:              cfg.Grid,
			Power:             cfg.Power,
			TransitionLatency: cfg.TransitionLatency,
			Interference:      cfg.Interference,
		})
		if err != nil {
			return coreEval{}, err
		}
		cr := sr.Cores[0]
		dur := float64(cr.EndTime)
		ev := coreEval{
			powerW:    (cr.LCEnergyJ + cr.BatchEnergyJ) / (dur / 1e9),
			unitsPerS: cr.BatchUnits / (dur / 1e9),
			tailRel:   cr.TailNs(0.95, 0.1) / bound,
		}
		cache[key] = ev
		return ev, nil
	}

	out := FleetResult{BatchUnitsPerSec: map[string]float64{}}
	serversPerConfig := float64(cfg.LCServersPerApp) / float64(cfg.NMixes)
	for _, app := range m.apps {
		for _, mix := range m.mixes {
			var serverCoreP float64
			for _, b := range mix {
				ev, err := evalCore(app, b)
				if err != nil {
					return FleetResult{}, err
				}
				serverCoreP += ev.powerW
				out.BatchUnitsPerSec[b.Name] += serversPerConfig * ev.unitsPerS
				if ev.tailRel > out.WorstTailRel {
					out.WorstTailRel = ev.tailRel
				}
			}
			// Colocated cores are never idle: all six count as active.
			serverPower := serverCoreP + cfg.System.NonCorePower(float64(cfg.CoresPerServer))
			out.LCPowerW += serversPerConfig * serverPower
		}
		out.LCServers += cfg.LCServersPerApp
	}

	// Provision batch-only servers for the per-app throughput deficit.
	var extraCores float64
	var extraCorePower float64
	names := make([]string, 0, len(seg.BatchUnitsPerSec))
	for name := range seg.BatchUnitsPerSec {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		target := seg.BatchUnitsPerSec[name]
		deficit := target - out.BatchUnitsPerSec[name]
		if deficit <= 0 {
			continue
		}
		b, ok := workload.FindBatchApp(name)
		if !ok {
			return FleetResult{}, fmt.Errorf("datacenter: unknown batch app %q", name)
		}
		f := m.tpw[name]
		cores := deficit / b.UnitsPerSec(f)
		extraCores += cores
		extraCorePower += cores * b.PowerW(f, cfg.Power)
		out.BatchUnitsPerSec[name] = target
	}
	extraServers := int(extraCores/float64(cfg.CoresPerServer) + 0.999999)
	out.BatchServers = extraServers
	out.BatchPowerW = extraCorePower +
		float64(extraServers)*cfg.System.NonCorePower(float64(cfg.CoresPerServer))
	return out, nil
}

func stableHash(s string) int64 {
	var h int64 = 1469598103934665603
	for i := 0; i < len(s); i++ {
		h ^= int64(s[i])
		h *= 1099511628211
	}
	if h < 0 {
		h = -h
	}
	return h % 1000003
}
