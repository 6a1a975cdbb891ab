package cluster

import (
	"fmt"

	"rubik/internal/capping"
	rubikcore "rubik/internal/core"
	"rubik/internal/sim"
)

// This file is the hierarchical (nested-budget) fleet path: a rack-level
// allocation round couples sockets, which the shared-nothing shard engine
// deliberately forbids mid-run — so coupling is confined to epoch
// barriers. The run alternates two strictly separated regimes:
//
//	phase    sockets advance independently (work-stealing parallel, each
//	         on its own engine) up to the next multiple of Epoch, firing
//	         only events due by it and never moving a clock past its last
//	         event (sim.Engine.RunEventsUntil);
//	barrier  a single goroutine, in socket order, closes every socket's
//	         demand window, runs one top-down tree re-allocation, and
//	         schedules each changed socket cap as an engine event AT the
//	         barrier time — the first thing the socket's next phase sees.
//
// Determinism/shard-invariance argument (DESIGN.md §13): phases only read
// and advance socket-local state, so the phase outcome is a function of
// (socket inputs, barrier time) regardless of which shard goroutine runs
// it; barriers are sequential and iterate in socket order; hence every
// input to every Reallocate — and so every cap every socket observes — is
// identical at any shard count, and shard=N stays DeepEqual shard=1. With
// a degenerate tree whose every round re-derives the flat cap, applyCap
// no-ops and the whole run is bit-identical to flat per-socket capping.
type hierFleet struct {
	cfg    FleetConfig
	h      *capping.Hierarchy
	sims   []*socketSim
	caches []*rubikcore.TableCache
	errs   []error

	caps       []float64 // cap currently applied (or armed) per socket
	demandW    []float64
	drained    []bool
	capChanges int
}

// scheduleCap arms a budget retarget at t on each of the socket's domains
// (hierarchical sockets have exactly one, spanning the socket).
func (s *socketSim) scheduleCap(t sim.Time, w float64) {
	for _, ctl := range s.capped.ctls {
		ctl := ctl
		s.eng.At(t, func() { ctl.applyCap(w) })
	}
}

// runFleetHier simulates the fleet under cfg.Hierarchy. Called from
// RunFleet after the shared validation; see the file comment for the
// phase/barrier protocol.
func runFleetHier(cfg FleetConfig, shards int) (FleetResult, error) {
	if cfg.Epoch <= 0 {
		return FleetResult{}, fmt.Errorf("cluster: hierarchical fleet needs a positive Epoch, got %d", cfg.Epoch)
	}
	if !(cfg.CapW >= 0) {
		return FleetResult{}, fmt.Errorf("cluster: per-socket ceiling must not be negative, got %v W", cfg.CapW)
	}
	// Leaf power bounds from the shared core curve: a probe domain reuses
	// the grid/model validation and the true (non-monotone-safe) extremes.
	probe, err := capping.NewDomain(cfg.Core.Grid, cfg.Core.Power, 1, 1)
	if err != nil {
		return FleetResult{}, err
	}
	floorW := float64(cfg.CoresPerSocket) * probe.MinPowerW()
	leafMaxW := float64(cfg.CoresPerSocket) * probe.MaxPowerW()
	if cfg.CapW > 0 && cfg.CapW < leafMaxW {
		leafMaxW = cfg.CapW
	}
	if leafMaxW < floorW {
		leafMaxW = floorW // a sub-floor ceiling pins every grant at the floor
	}
	h, err := capping.NewHierarchy(*cfg.Hierarchy, cfg.Sockets, floorW, leafMaxW)
	if err != nil {
		return FleetResult{}, err
	}

	f := &hierFleet{
		cfg:     cfg,
		h:       h,
		sims:    make([]*socketSim, cfg.Sockets),
		caches:  cfg.newTableCaches(cfg.Sockets),
		errs:    make([]error, cfg.Sockets),
		caps:    make([]float64, cfg.Sockets),
		demandW: make([]float64, cfg.Sockets),
		drained: make([]bool, cfg.Sockets),
	}

	// Initial round before any demand exists: every socket asks for its
	// maximum, so tight budgets start divided instead of briefly uncapped.
	for s := range f.demandW {
		f.demandW[s] = leafMaxW
	}
	copy(f.caps, h.Reallocate(f.demandW))

	// Build every socket sim. Caches are per socket, not per shard: a
	// socket migrates across phase goroutines, and the WaitGroup barrier
	// between phases is what keeps its cache single-owner at any instant.
	forEachSocket(shards, cfg.Sockets, func(_, s int) {
		src := cfg.NewSource(s)
		if src == nil {
			f.errs[s] = fmt.Errorf("cluster: fleet socket %d: NewSource returned nil", s)
			return
		}
		c := cfg.socketConfig(s)
		c.CapW = f.caps[s]
		c.TableCache = f.caches[s]
		f.sims[s], f.errs[s] = newSocketSim(src, c)
	})
	if err := f.firstErr(); err != nil {
		return FleetResult{}, err
	}

	// Phase/barrier loop.
	deadline := cfg.Core.Deadline
	for barrier := cfg.Epoch; ; barrier += cfg.Epoch {
		target := barrier
		if deadline > 0 && target > deadline {
			target = deadline
		}
		forEachSocket(shards, cfg.Sockets, func(_, s int) {
			if !f.drained[s] {
				f.drained[s] = f.sims[s].advanceTo(target)
			}
		})
		all := true
		for _, d := range f.drained {
			if !d {
				all = false
				break
			}
		}
		if all || (deadline > 0 && target >= deadline) {
			break
		}
		f.barrier(target)
	}
	// Deadline cut-off parity with the flat path: undrained sockets end
	// with their clocks on the deadline (every due event already fired).
	if deadline > 0 {
		for s, sim := range f.sims {
			if !f.drained[s] {
				sim.eng.RunUntil(deadline)
			}
		}
	}

	results := make([]Result, cfg.Sockets)
	forEachSocket(shards, cfg.Sockets, func(_, s int) {
		results[s], f.errs[s] = f.sims[s].result()
	})
	if err := f.firstErr(); err != nil {
		return FleetResult{}, err
	}
	out := FleetResult{Shards: shards, Sockets: results, TableCache: sumCacheStats(f.caches)}
	hs := h.Stats()
	hs.LeafCapChanges = f.capChanges
	out.Hierarchy = &hs
	return out, nil
}

// barrier closes the epoch ending at target: collect demand in socket
// order, re-allocate the tree, and arm every changed cap as an event at
// exactly the barrier time. Runs on one goroutine between phases, so it
// reads and writes socket state without synchronization.
func (f *hierFleet) barrier(target sim.Time) {
	for s, sm := range f.sims {
		if f.drained[s] {
			// A finished socket needs only its floor; its budget flows to
			// the sockets still running.
			f.demandW[s] = f.h.LeafFloorW()
			continue
		}
		f.demandW[s] = sm.capped.epochDemandW(target)
	}
	grants := f.h.Reallocate(f.demandW)
	for s, sm := range f.sims {
		if f.drained[s] || grants[s] == f.caps[s] {
			continue
		}
		f.caps[s] = grants[s]
		f.capChanges++
		sm.scheduleCap(target, grants[s])
	}
}

// firstErr returns the lowest-socket error, so the reported failure is
// deterministic regardless of which phase goroutine hit it first.
func (f *hierFleet) firstErr() error {
	for s, err := range f.errs {
		if err != nil {
			return fmt.Errorf("cluster: fleet socket %d: %w", s, err)
		}
	}
	return nil
}
