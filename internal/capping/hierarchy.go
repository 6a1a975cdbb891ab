package capping

import (
	"fmt"
	"math"
	"sort"
)

// This file is the nested-budget layer: production fleets do not cap each
// socket independently — a rack budget constrains PDU budgets, which
// constrain socket budgets, which constrain the per-core grants the flat
// Domain/Allocator machinery already reconciles. A Hierarchy is a tree of
// budget nodes with arbitrary fan-out per level; its leaves are sockets,
// and each re-allocation turns leaf demands (watts) into leaf grants
// (watts) that the cluster layer applies as time-varying Domain caps.
//
// Like the flat allocators, everything here is deterministic and
// simulation-agnostic: the cluster decides *when* rounds run (epoch
// barriers) and reports demand; the tree only divides watts.

// ChildDemand is one child's input to a level allocation round, all in
// watts. FloorW is the power the child's subtree burns even when fully
// throttled (every core at its cheapest admissible step); MaxW is the most
// it can usefully absorb (every core at the costliest step, clamped by any
// node cap below); DemandW is its aggregated reported demand, already
// clamped into [FloorW, MaxW].
type ChildDemand struct {
	FloorW  float64
	MaxW    float64
	DemandW float64
}

// LevelAllocator divides one node's divisible budget among its children.
// Implementations must be deterministic functions of (budgetW, children)
// and must grant within [FloorW, MaxW] per child; when the budget does not
// cover Σ FloorW the round is infeasible and every child is granted its
// floor (the excess surfaces downstream as Domain infeasibility).
type LevelAllocator interface {
	// Name identifies the level strategy in results and reports.
	Name() string
	// AllocateLevel writes a granted wattage per child into grants
	// (len(grants) == len(children)).
	AllocateLevel(budgetW float64, children []ChildDemand, grants []float64)
}

// StaticLevel is the rigid baseline: every child receives an equal share
// of the budget, clamped into [FloorW, MaxW]. Headroom a lightly-loaded
// child leaves unused is NOT redistributed — the gap to WaterfillLevel at
// the same budget measures what demand-aware nested division buys. The
// share is a single division, so a budget constructed as n·cap divides
// back to exactly cap: the degenerate one-level tree reproduces flat
// per-socket capping bit-for-bit.
type StaticLevel struct{}

// Name implements LevelAllocator.
func (StaticLevel) Name() string { return "static" }

// AllocateLevel implements LevelAllocator.
func (StaticLevel) AllocateLevel(budgetW float64, children []ChildDemand, grants []float64) {
	share := budgetW / float64(len(children))
	for i, c := range children {
		g := share
		if g < c.FloorW {
			g = c.FloorW
		}
		if g > c.MaxW {
			g = c.MaxW
		}
		grants[i] = g
	}
}

// WaterfillLevel is demand-aware progressive filling over continuous
// watts, the level-wise composition of the flat Waterfill allocator. Two
// passes: first raise a common water level from the floors toward each
// child's (demand-clamped) target — the max-min fair, leximin-optimal
// division of budget toward demand (the brute-force reference test pins
// this, mirroring the flat allocator's pin) — then spread any leftover
// toward the children's maxima the same way, so surplus becomes headroom
// instead of evaporating at the node.
type WaterfillLevel struct{}

// Name implements LevelAllocator.
func (WaterfillLevel) Name() string { return "waterfill" }

// AllocateLevel implements LevelAllocator.
func (WaterfillLevel) AllocateLevel(budgetW float64, children []ChildDemand, grants []float64) {
	n := len(children)
	var loBuf, hiBuf [maxStackFan]float64
	lo := fanScratch(loBuf[:], n)
	hi := fanScratch(hiBuf[:], n)
	for i, c := range children {
		lo[i] = c.FloorW
		hi[i] = clampW(c.DemandW, c.FloorW, c.MaxW)
	}
	waterFill(budgetW, lo, hi, grants)
	used := 0.0
	for _, g := range grants {
		used += g
	}
	if leftover := budgetW - used; leftover > 0 {
		// Surplus beyond every demand: lift toward the maxima so a parent
		// grant is not silently wasted (children may out-demand their
		// report before the next barrier).
		copy(lo, grants)
		for i, c := range children {
			hi[i] = c.MaxW
		}
		waterFill(used+leftover, lo, hi, grants)
	}
}

// waterFill writes clamp(λ, lo[i], hi[i]) into out for the water level λ
// at which the clamped sum meets budget. Below Σ lo the round is
// infeasible and out = lo; above Σ hi everything is granted hi.
func waterFill(budget float64, lo, hi, out []float64) {
	sumLo, sumHi := 0.0, 0.0
	for i := range lo {
		sumLo += lo[i]
		sumHi += hi[i]
	}
	if budget <= sumLo {
		copy(out, lo)
		return
	}
	if budget >= sumHi {
		copy(out, hi)
		return
	}
	// S(λ) = Σ clamp(λ, lo, hi) is piecewise linear and nondecreasing with
	// breakpoints at the lo/hi values; find the segment bracketing the
	// budget and interpolate. O(n² log n) on a per-epoch path with level
	// fan-outs of dozens — clarity over asymptotics.
	var bpBuf [2 * maxStackFan]float64
	bps := fanScratch(bpBuf[:], 2*len(lo))[:0]
	bps = append(bps, lo...)
	bps = append(bps, hi...)
	sort.Float64s(bps)
	S := func(level float64) float64 {
		s := 0.0
		for i := range lo {
			s += clampW(level, lo[i], hi[i])
		}
		return s
	}
	prev := bps[0]
	sPrev := S(prev)
	level := bps[len(bps)-1]
	for _, bp := range bps[1:] {
		if bp == prev {
			continue
		}
		sBp := S(bp)
		if sBp >= budget {
			level = prev + (budget-sPrev)*(bp-prev)/(sBp-sPrev)
			break
		}
		prev, sPrev = bp, sBp
	}
	for i := range out {
		out[i] = clampW(level, lo[i], hi[i])
	}
}

// maxStackFan is the widest fan-out whose water-fill scratch lives in
// fixed-size arrays on the stack, which keeps a hierarchy round
// allocation-free; wider nodes fall back to heap scratch.
const maxStackFan = 32

// fanScratch returns buf[:n] when buf is long enough and a fresh slice
// otherwise.
func fanScratch(buf []float64, n int) []float64 {
	if n <= len(buf) {
		return buf[:n]
	}
	return make([]float64, n)
}

func clampW(w, lo, hi float64) float64 {
	if w < lo {
		return lo
	}
	if w > hi {
		return hi
	}
	return w
}

// LevelByName returns a fresh level allocator by strategy name.
func LevelByName(name string) (LevelAllocator, error) {
	switch name {
	case "static":
		return StaticLevel{}, nil
	case "waterfill":
		return WaterfillLevel{}, nil
	}
	return nil, fmt.Errorf("capping: unknown level allocator %q (have static, waterfill)", name)
}

// LevelSpec describes one level of the budget tree, root-most first.
type LevelSpec struct {
	// Name labels the level in stats and reports ("rack", "pdu", ...).
	Name string
	// Nodes is the node count at this level; children (the next level's
	// nodes, or the leaves below the last level) are split contiguously
	// and near-evenly among them. Must not decrease down the tree.
	Nodes int
	// CapW is the per-node budget ceiling in watts. On the root level it
	// is the budget itself and must be positive (+Inf allowed: never
	// binding); below the root, 0 means uncapped — the node passes its
	// parent grant through.
	CapW float64
	// Oversub multiplies a node's grant before dividing it among children
	// — the classic provisioning bet that siblings do not peak together.
	// 1 (or 0, the zero value) divides exactly the grant; 1.25 promises
	// children 25% more than the node holds.
	Oversub float64
	// Alloc divides the node budget among children; nil means
	// WaterfillLevel.
	Alloc LevelAllocator
}

// HierarchySpec is the shape of the budget tree: levels from the root
// down, with the domain leaves (sockets) attached below the last level.
type HierarchySpec struct {
	Levels []LevelSpec
}

type hierNode struct {
	lo, hi int // children index range into the next level (or the leaves)
	// Aggregates rebuilt bottom-up each round, grants top-down.
	floorW  float64
	maxW    float64
	demandW float64
	grantW  float64
}

type levelState struct {
	spec  LevelSpec
	nodes []hierNode
	// Per-round stats accumulators.
	minGrantW float64
	maxGrantW float64
	sumGrantW float64
	throttled int
}

// Hierarchy is a built budget tree over a fixed leaf population. It owns
// all scratch; Reallocate performs no allocations after construction. Not
// safe for concurrent use.
type Hierarchy struct {
	levels     []levelState
	leaves     int
	leafFloorW float64
	leafMaxW   float64

	leafGrants []float64
	children   []ChildDemand // scratch sized to the widest fan-out
	chGrants   []float64
	rounds     int
	leafMin    float64
	leafMax    float64
	leafSum    float64
	leafThrot  int
}

// NewHierarchy builds the tree. leaves is the socket count; leafFloorW and
// leafMaxW bound one leaf's absorbable power (cores × cheapest-step and
// cores × costliest-step active power, intersected with any flat per-leaf
// cap). Both must be positive with leafFloorW ≤ leafMaxW, which keeps
// every grant positive — a valid Domain cap.
func NewHierarchy(spec HierarchySpec, leaves int, leafFloorW, leafMaxW float64) (*Hierarchy, error) {
	if len(spec.Levels) == 0 {
		return nil, fmt.Errorf("capping: hierarchy needs at least one level")
	}
	if leaves <= 0 {
		return nil, fmt.Errorf("capping: hierarchy needs at least 1 leaf, got %d", leaves)
	}
	if !(leafFloorW > 0) || !(leafMaxW >= leafFloorW) {
		return nil, fmt.Errorf("capping: leaf power bounds must satisfy 0 < floor ≤ max, got [%v, %v] W",
			leafFloorW, leafMaxW)
	}
	h := &Hierarchy{
		leaves:     leaves,
		leafFloorW: leafFloorW,
		leafMaxW:   leafMaxW,
		leafGrants: make([]float64, leaves),
		leafMin:    math.Inf(1),
		leafMax:    math.Inf(-1),
	}
	prevNodes := 0
	for li, ls := range spec.Levels {
		if ls.Nodes <= 0 {
			return nil, fmt.Errorf("capping: level %q needs at least 1 node, got %d", ls.Name, ls.Nodes)
		}
		if li > 0 && ls.Nodes < prevNodes {
			return nil, fmt.Errorf("capping: level %q has %d nodes under %d parents — fan-out cannot shrink",
				ls.Name, ls.Nodes, prevNodes)
		}
		if li == 0 && !(ls.CapW > 0) {
			return nil, fmt.Errorf("capping: root level %q needs a positive budget, got %v W", ls.Name, ls.CapW)
		}
		if !(ls.CapW >= 0) {
			return nil, fmt.Errorf("capping: level %q cap must not be negative, got %v W", ls.Name, ls.CapW)
		}
		if !(ls.Oversub == 0 || ls.Oversub >= 1) {
			return nil, fmt.Errorf("capping: level %q oversubscription must be ≥ 1 (or 0 for exact), got %v",
				ls.Name, ls.Oversub)
		}
		st := levelState{spec: ls, nodes: make([]hierNode, ls.Nodes)}
		if st.spec.Oversub == 0 {
			st.spec.Oversub = 1
		}
		if st.spec.CapW == 0 {
			st.spec.CapW = math.Inf(1)
		}
		if st.spec.Alloc == nil {
			st.spec.Alloc = WaterfillLevel{}
		}
		st.minGrantW = math.Inf(1)
		st.maxGrantW = math.Inf(-1)
		h.levels = append(h.levels, st)
		prevNodes = ls.Nodes
	}
	if prevNodes > leaves {
		return nil, fmt.Errorf("capping: last level has %d nodes over %d leaves — fan-out cannot shrink",
			prevNodes, leaves)
	}
	// Contiguous near-even child ranges per level; the widest fan-out
	// sizes the shared allocation scratch.
	maxFan := 0
	for li := range h.levels {
		st := &h.levels[li]
		childN := leaves
		if li+1 < len(h.levels) {
			childN = h.levels[li+1].spec.Nodes
		}
		m := len(st.nodes)
		for j := range st.nodes {
			st.nodes[j].lo = j * childN / m
			st.nodes[j].hi = (j + 1) * childN / m
			if fan := st.nodes[j].hi - st.nodes[j].lo; fan > maxFan {
				maxFan = fan
			}
		}
	}
	h.children = make([]ChildDemand, maxFan)
	h.chGrants = make([]float64, maxFan)
	return h, nil
}

// LeafFloorW returns the per-leaf power floor the tree was built with.
func (h *Hierarchy) LeafFloorW() float64 { return h.leafFloorW }

// Reallocate runs one top-down allocation round: demandW[i] is leaf i's
// reported demand in watts (clamped into the leaf bounds), and the
// returned slice — valid until the next call — holds one positive cap per
// leaf. Deterministic in its inputs; the epoch protocol in the cluster
// layer depends on that for shard invariance.
func (h *Hierarchy) Reallocate(demandW []float64) []float64 {
	if len(demandW) != h.leaves {
		panic(fmt.Sprintf("capping: Reallocate over %d demands, hierarchy has %d leaves",
			len(demandW), h.leaves))
	}
	// Bottom-up: aggregate floors, maxima and demands per node.
	for li := len(h.levels) - 1; li >= 0; li-- {
		st := &h.levels[li]
		for j := range st.nodes {
			nd := &st.nodes[j]
			var f, m, dem float64
			if li == len(h.levels)-1 {
				cnt := float64(nd.hi - nd.lo)
				f = cnt * h.leafFloorW
				m = cnt * h.leafMaxW
				for i := nd.lo; i < nd.hi; i++ {
					dem += clampW(demandW[i], h.leafFloorW, h.leafMaxW)
				}
			} else {
				for _, ch := range h.levels[li+1].nodes[nd.lo:nd.hi] {
					f += ch.floorW
					m += ch.maxW
					dem += ch.demandW
				}
			}
			if m > st.spec.CapW {
				m = st.spec.CapW
			}
			if m < f {
				m = f // a node cap below the floor is infeasible, not absorbing
			}
			nd.floorW, nd.maxW, nd.demandW = f, m, clampW(dem, f, m)
		}
	}
	// Top-down: the root's budget is its cap; every node divides
	// grant × oversubscription among its children.
	root := &h.levels[0]
	for j := range root.nodes {
		g := root.spec.CapW
		if g > root.nodes[j].maxW {
			g = root.nodes[j].maxW
		}
		root.nodes[j].grantW = g
	}
	for li := range h.levels {
		st := &h.levels[li]
		last := li == len(h.levels)-1
		for j := range st.nodes {
			nd := &st.nodes[j]
			fan := nd.hi - nd.lo
			ch := h.children[:fan]
			cg := h.chGrants[:fan]
			if last {
				for k := 0; k < fan; k++ {
					ch[k] = ChildDemand{
						FloorW:  h.leafFloorW,
						MaxW:    h.leafMaxW,
						DemandW: clampW(demandW[nd.lo+k], h.leafFloorW, h.leafMaxW),
					}
				}
			} else {
				for k := 0; k < fan; k++ {
					c := &h.levels[li+1].nodes[nd.lo+k]
					ch[k] = ChildDemand{FloorW: c.floorW, MaxW: c.maxW, DemandW: c.demandW}
				}
			}
			st.spec.Alloc.AllocateLevel(nd.grantW*st.spec.Oversub, ch, cg)
			if last {
				copy(h.leafGrants[nd.lo:nd.hi], cg)
			} else {
				for k := 0; k < fan; k++ {
					c := &h.levels[li+1].nodes[nd.lo+k]
					c.grantW = cg[k]
					if c.grantW > c.maxW {
						c.grantW = c.maxW
					}
				}
			}
		}
	}
	h.accountRound(demandW)
	return h.leafGrants
}

// accountRound folds one round into the per-level stats accumulators.
func (h *Hierarchy) accountRound(demandW []float64) {
	h.rounds++
	for li := range h.levels {
		st := &h.levels[li]
		for j := range st.nodes {
			g := st.nodes[j].grantW
			if g < st.minGrantW {
				st.minGrantW = g
			}
			if g > st.maxGrantW {
				st.maxGrantW = g
			}
			st.sumGrantW += g
			if g < st.nodes[j].demandW {
				st.throttled++
			}
		}
	}
	for i, g := range h.leafGrants {
		if g < h.leafMin {
			h.leafMin = g
		}
		if g > h.leafMax {
			h.leafMax = g
		}
		h.leafSum += g
		if g < clampW(demandW[i], h.leafFloorW, h.leafMaxW) {
			h.leafThrot++
		}
	}
}

// LevelStats is one level's accounting across every allocation round.
type LevelStats struct {
	// Name and Nodes echo the spec; Allocator is the level strategy.
	Name      string
	Nodes     int
	Allocator string
	// MinGrantW/MaxGrantW are the extreme node grants over all rounds;
	// AvgGrantW is the mean node grant per round.
	MinGrantW float64
	MaxGrantW float64
	AvgGrantW float64
	// Throttled counts (node, round) pairs granted below aggregated
	// demand — how often the budget bound at this level.
	Throttled int
}

// HierarchyStats is the per-level accounting a hierarchical fleet run
// reports: the spec levels top-down, then the leaf ("socket") level.
type HierarchyStats struct {
	Levels []LevelStats
	// Reallocations counts allocation rounds: the initial grant plus one
	// per epoch barrier.
	Reallocations int
	// LeafCapChanges counts socket cap retargets actually applied — a
	// round that re-derives an unchanged grant perturbs nothing and is
	// not counted. Maintained by the cluster layer.
	LeafCapChanges int
}

// Stats snapshots the accounting so far.
func (h *Hierarchy) Stats() HierarchyStats {
	s := HierarchyStats{Reallocations: h.rounds}
	denom := float64(h.rounds)
	if denom == 0 {
		denom = 1
	}
	for li := range h.levels {
		st := &h.levels[li]
		ls := LevelStats{
			Name:      st.spec.Name,
			Nodes:     len(st.nodes),
			Allocator: st.spec.Alloc.Name(),
			MinGrantW: st.minGrantW,
			MaxGrantW: st.maxGrantW,
			AvgGrantW: st.sumGrantW / (denom * float64(len(st.nodes))),
			Throttled: st.throttled,
		}
		if h.rounds == 0 {
			ls.MinGrantW, ls.MaxGrantW = 0, 0
		}
		s.Levels = append(s.Levels, ls)
	}
	leaf := LevelStats{
		Name:      "socket",
		Nodes:     h.leaves,
		Allocator: h.levels[len(h.levels)-1].spec.Alloc.Name(),
		MinGrantW: h.leafMin,
		MaxGrantW: h.leafMax,
		AvgGrantW: h.leafSum / (denom * float64(h.leaves)),
		Throttled: h.leafThrot,
	}
	if h.rounds == 0 {
		leaf.MinGrantW, leaf.MaxGrantW = 0, 0
	}
	s.Levels = append(s.Levels, leaf)
	return s
}

var (
	_ LevelAllocator = StaticLevel{}
	_ LevelAllocator = WaterfillLevel{}
)
