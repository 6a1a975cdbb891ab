package coloc

import (
	"fmt"

	rubikcore "rubik/internal/core"
	"rubik/internal/cpu"
	"rubik/internal/queueing"
	"rubik/internal/sim"
	"rubik/internal/workload"
)

// SchemeConfig describes a colocated server for the software-managed
// schemes (RubikColoc and StaticColoc): 6 cores, each pairing one LC app
// instance with one batch app from the mix. Cores are independent (the
// memory system is partitioned and these schemes respect the TDP by
// construction: LC at or below the uncolocated-safe frequency, batch at or
// below nominal).
type SchemeConfig struct {
	App workload.LCApp
	Mix []workload.BatchApp
	// Load is the LC load fraction per core.
	Load float64
	// RequestsPerCore is the LC stream length per core (negative, i.e.
	// unbounded, is an error): core i streams Poisson arrivals at Load,
	// seeded Seed + 101·i.
	RequestsPerCore int
	Seed            int64
	// BoundNs is the LC tail latency bound (RubikColoc only).
	BoundNs float64

	Grid              cpu.Grid
	Power             cpu.PowerModel
	TransitionLatency sim.Time
	Interference      Interference
}

// RunRubikColocServer simulates a server managed by RubikColoc: each core
// runs a fresh Rubik controller for its LC instance and drops to the batch
// app's optimal throughput-per-watt frequency whenever the LC app is idle
// (paper Fig. 13c).
func RunRubikColocServer(cfg SchemeConfig) (ServerResult, error) {
	if cfg.BoundNs <= 0 {
		return ServerResult{}, fmt.Errorf("coloc: RubikColoc needs a latency bound")
	}
	return runIndependentCores(cfg, func(coreIdx int) (queueing.Policy, error) {
		rcfg := rubikcore.DefaultConfig(cfg.BoundNs)
		rcfg.Grid = cfg.Grid
		rcfg.TransitionLatency = cfg.TransitionLatency
		// Core sharing adds per-burst costs Rubik's i.i.d. model cannot
		// see (re-warming, preemption), so give the feedback loop wider
		// authority to tighten the internal target.
		rcfg.Feedback.MinScale = 0.25
		return rubikcore.New(rcfg)
	})
}

// RunStaticColocServer simulates StaticColoc: LC runs at the StaticOracle
// frequency computed on an *uncolocated* trace (so it has no slack for
// core-state interference, the weakness paper Fig. 15 exposes), batch at
// its optimal TPW frequency.
func RunStaticColocServer(cfg SchemeConfig, staticMHz int) (ServerResult, error) {
	if staticMHz <= 0 {
		return ServerResult{}, fmt.Errorf("coloc: StaticColoc needs a frequency")
	}
	return runIndependentCores(cfg, func(int) (queueing.Policy, error) {
		return queueing.FixedPolicy{MHz: staticMHz}, nil
	})
}

func runIndependentCores(cfg SchemeConfig, mkPolicy func(int) (queueing.Policy, error)) (ServerResult, error) {
	if len(cfg.Mix) == 0 {
		return ServerResult{}, fmt.Errorf("coloc: empty batch mix")
	}
	res := ServerResult{Cores: make([]CoreResult, len(cfg.Mix))}
	for i, b := range cfg.Mix {
		pol, err := mkPolicy(i)
		if err != nil {
			return ServerResult{}, err
		}
		cr, err := RunCore(CoreConfig{
			App:               cfg.App,
			Batch:             b,
			Source:            workload.NewLoadSource(cfg.App, cfg.Load, cfg.RequestsPerCore, cfg.Seed+int64(i)*101),
			LCPolicy:          pol,
			Grid:              cfg.Grid,
			Power:             cfg.Power,
			TransitionLatency: cfg.TransitionLatency,
			InitialMHz:        cpu.NominalMHz,
			Interference:      cfg.Interference,
		})
		if err != nil {
			return ServerResult{}, err
		}
		res.Cores[i] = cr
	}
	return res, nil
}

// DefaultSchemeConfig returns paper-like parameters for a colocated server.
func DefaultSchemeConfig(app workload.LCApp, mix []workload.BatchApp, load float64, boundNs float64, seed int64) SchemeConfig {
	return SchemeConfig{
		App:               app,
		Mix:               mix,
		Load:              load,
		RequestsPerCore:   3000,
		Seed:              seed,
		BoundNs:           boundNs,
		Grid:              cpu.DefaultGrid(),
		Power:             cpu.DefaultPowerModel(),
		TransitionLatency: 4 * sim.Microsecond,
		Interference:      DefaultInterference(),
	}
}
