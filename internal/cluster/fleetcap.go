package cluster

import (
	"fmt"

	"rubik/internal/capping"
	"rubik/internal/sim"
)

// This file is the hierarchical (nested-budget) part of the fleet loop
// in RunFleet. A rack-level allocation round couples sockets, which the
// shared-nothing shard engine deliberately forbids mid-run, so coupling
// is confined to epoch barriers. The run alternates two strictly
// separated regimes:
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

// budgetTree is a hierarchical fleet's budget tree and the per-socket
// caps it has granted so far.
type budgetTree struct {
	h          *capping.Hierarchy
	caps       []float64 // cap currently applied (or armed) per socket
	demandW    []float64
	capChanges int
}

// newBudgetTree validates the hierarchical settings of cfg, builds the
// tree over its sockets and runs the initial round.
func newBudgetTree(cfg FleetConfig) (*budgetTree, error) {
	if cfg.Epoch <= 0 {
		return nil, fmt.Errorf("cluster: hierarchical fleet needs a positive Epoch, got %d", cfg.Epoch)
	}
	if !(cfg.CapW >= 0) {
		return nil, fmt.Errorf("cluster: per-socket ceiling must not be negative, got %v W", cfg.CapW)
	}
	// Leaf power bounds from the shared core curve: a probe domain reuses
	// the grid/model validation, and its end steps are the curve's
	// cheapest and costliest.
	probe, err := capping.NewDomain(cfg.Core.Grid, cfg.Core.Power, 1, 1)
	if err != nil {
		return nil, err
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
		return nil, err
	}
	t := &budgetTree{
		h:       h,
		caps:    make([]float64, cfg.Sockets),
		demandW: make([]float64, cfg.Sockets),
	}
	// Initial round before any demand exists: every socket asks for its
	// maximum, so tight budgets start divided instead of briefly uncapped.
	for s := range t.demandW {
		t.demandW[s] = leafMaxW
	}
	copy(t.caps, h.Reallocate(t.demandW))
	return t, nil
}

// scheduleCap arms a retarget of the socket's budget to w at t. One
// handle per socket suffices: a cap armed at a barrier fires at the
// start of the next phase, before the next barrier can re-arm it.
func (s *socketSim) scheduleCap(t sim.Time, w float64) {
	if !s.capRegistered {
		s.capEv = s.eng.Register(func() { s.capped.applyCap(s.capW) })
		s.capRegistered = true
	}
	s.capW = w
	s.eng.Reschedule(s.capEv, t)
}

// barrier closes the epoch ending at target: collect demand in socket
// order, re-allocate the tree, and arm every changed cap as an event at
// exactly the barrier time. sims[s] is nil once socket s has drained and
// been finalised. Runs on one goroutine between phases, so it reads and
// writes socket state without synchronization.
func (t *budgetTree) barrier(target sim.Time, sims []*socketSim) {
	for s, sm := range sims {
		if sm == nil {
			// A finished socket reports no demand, which the tree raises
			// to its floor; the rest of its budget flows to the sockets
			// still running.
			t.demandW[s] = 0
			continue
		}
		t.demandW[s] = sm.capped.epochReport(target)
	}
	grants := t.h.Reallocate(t.demandW)
	for s, sm := range sims {
		if sm == nil || grants[s] == t.caps[s] {
			continue
		}
		t.caps[s] = grants[s]
		t.capChanges++
		sm.scheduleCap(target, grants[s])
	}
}

// stats snapshots the tree's per-level accounting.
func (t *budgetTree) stats() *capping.HierarchyStats {
	hs := t.h.Stats()
	hs.LeafCapChanges = t.capChanges
	return &hs
}
