package coloc

import (
	"fmt"

	rubikcore "rubik/internal/core"
	"rubik/internal/cpu"
	"rubik/internal/queueing"
	"rubik/internal/sim"
	"rubik/internal/workload"
)

// RunRubikColocServer simulates a server managed by RubikColoc: each core
// runs a fresh Rubik controller for its LC instance and drops to the batch
// app's optimal throughput-per-watt frequency whenever the LC app is idle
// (paper Fig. 13c). The software-managed schemes keep cores independent:
// the memory system is partitioned and they respect the TDP by
// construction (LC at or below the uncolocated-safe frequency, batch at
// or below nominal).
func RunRubikColocServer(cfg ServerConfig) (ServerResult, error) {
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
func RunStaticColocServer(cfg ServerConfig, staticMHz int) (ServerResult, error) {
	if staticMHz <= 0 {
		return ServerResult{}, fmt.Errorf("coloc: StaticColoc needs a frequency")
	}
	return runIndependentCores(cfg, func(int) (queueing.Policy, error) {
		return queueing.FixedPolicy{MHz: staticMHz}, nil
	})
}

func runIndependentCores(cfg ServerConfig, mkPolicy func(int) (queueing.Policy, error)) (ServerResult, error) {
	if err := cfg.validate(); err != nil {
		return ServerResult{}, err
	}
	res := ServerResult{Cores: make([]CoreResult, len(cfg.Mix))}
	for i, b := range cfg.Mix {
		pol, err := mkPolicy(i)
		if err != nil {
			return ServerResult{}, err
		}
		ccfg := cfg.coreConfig(i, b)
		ccfg.LCPolicy = pol
		cr, err := RunCore(ccfg)
		if err != nil {
			return ServerResult{}, err
		}
		res.Cores[i] = cr
	}
	return res, nil
}

// DefaultServerConfig returns paper-like parameters for a colocated
// server; its Objective is HW-T.
func DefaultServerConfig(app workload.LCApp, mix []workload.BatchApp, load float64, boundNs float64, seed int64) ServerConfig {
	return ServerConfig{
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
