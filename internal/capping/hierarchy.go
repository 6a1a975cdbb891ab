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
// throttled (every core at step 0, the cheapest); MaxW is the most it can
// usefully absorb (every core at the top step, the costliest, clamped by any
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
// of the budget, clamped into [FloorW, MaxW]. A child whose floor exceeds
// the share is paid its floor, and the rest of the budget is split
// equally among the others, so a feasible budget is never overspent.
// Headroom a lightly-loaded child leaves unused is NOT redistributed —
// the gap to WaterfillLevel at the same budget measures what demand-aware
// nested division buys. When no floor binds the share is a single
// division, so a budget constructed as n·cap divides back to exactly cap:
// the degenerate one-level tree reproduces flat per-socket capping
// bit-for-bit.
type StaticLevel struct{}

// Name implements LevelAllocator.
func (StaticLevel) Name() string { return "static" }

// AllocateLevel implements LevelAllocator.
func (StaticLevel) AllocateLevel(budgetW float64, children []ChildDemand, grants []float64) {
	n := len(children)
	share := budgetW / float64(n)
	// Each pass pays the floors above the current share and re-splits
	// what is left. The share only falls, so the bound set only grows;
	// an infeasible budget ends with every child bound at its floor.
	for bound := 0; ; {
		rest, nb := budgetW, 0
		for _, c := range children {
			if c.FloorW > share {
				rest -= c.FloorW
				nb++
			}
		}
		if nb <= bound || nb == n {
			break
		}
		bound, share = nb, rest/float64(n-nb)
	}
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
// down. NewHierarchy appends the domain leaves (sockets) as the tree's
// last level.
type HierarchySpec struct {
	Levels []LevelSpec
}

type hierNode struct {
	// lo, hi index this node's children in the next level down; a
	// socket's one child is its entry in the reported demands.
	lo, hi int
	// floorW and maxW bound the node's subtree; they depend only on the
	// spec, so NewHierarchy fixes them.
	floorW, maxW float64
}

type levelState struct {
	spec  LevelSpec
	nodes []hierNode
	// Per node, rebuilt every round: demand bottom-up, grants top-down.
	demandW []float64
	grantW  []float64
	// Per-round stats accumulators.
	minGrantW float64
	maxGrantW float64
	sumGrantW float64
	throttled int
}

// Hierarchy is a built budget tree over a fixed leaf population. Its last
// level holds the leaves ("socket"), which have no children of their own
// and report the allocator of the level above. It owns all scratch;
// Reallocate performs no allocations after construction. Not safe for
// concurrent use.
type Hierarchy struct {
	levels   []levelState
	children []ChildDemand // scratch sized to the widest fan-out
	rounds   int
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
	if !(leafFloorW > 0) || !(leafMaxW >= leafFloorW) {
		return nil, fmt.Errorf("capping: leaf power bounds must satisfy 0 < floor ≤ max, got [%v, %v] W",
			leafFloorW, leafMaxW)
	}
	// The sockets are the last level, below the n spec levels.
	n := len(spec.Levels)
	specs := append(spec.Levels[:n:n], LevelSpec{Name: "socket", Nodes: leaves})
	h := &Hierarchy{}
	for li, ls := range specs {
		if ls.Nodes <= 0 {
			return nil, fmt.Errorf("capping: level %q needs at least 1 node, got %d", ls.Name, ls.Nodes)
		}
		if li > 0 && ls.Nodes < specs[li-1].Nodes {
			return nil, fmt.Errorf("capping: level %q has %d nodes under %d parents — fan-out cannot shrink",
				ls.Name, ls.Nodes, specs[li-1].Nodes)
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
		if ls.Oversub == 0 {
			ls.Oversub = 1
		}
		if ls.CapW == 0 {
			ls.CapW = math.Inf(1)
		}
		if ls.Alloc == nil {
			ls.Alloc = WaterfillLevel{}
		}
		h.levels = append(h.levels, levelState{
			spec:      ls,
			nodes:     make([]hierNode, ls.Nodes),
			demandW:   make([]float64, ls.Nodes),
			grantW:    make([]float64, ls.Nodes),
			minGrantW: math.Inf(1),
			maxGrantW: math.Inf(-1),
		})
	}
	h.levels[n].spec.Alloc = h.levels[n-1].spec.Alloc
	// Contiguous near-even child ranges per level, and node bounds from
	// the sockets up: a node over sockets holds count × the leaf bound,
	// a higher node the sum of its children's, either clipped by the node
	// cap (but never below the floor — a cap under the floor is
	// infeasible, not absorbing). The widest fan-out sizes the shared
	// allocation scratch.
	maxFan := 0
	for li := n; li >= 0; li-- {
		st := &h.levels[li]
		childN := leaves
		if li < n {
			childN = len(h.levels[li+1].nodes)
		}
		m := len(st.nodes)
		for j := range st.nodes {
			nd := &st.nodes[j]
			nd.lo, nd.hi = j*childN/m, (j+1)*childN/m
			maxFan = max(maxFan, nd.hi-nd.lo)
			switch li {
			case n:
				nd.floorW, nd.maxW = leafFloorW, leafMaxW
			case n - 1:
				cnt := float64(nd.hi - nd.lo)
				nd.floorW, nd.maxW = cnt*leafFloorW, cnt*leafMaxW
			default:
				for _, c := range h.levels[li+1].nodes[nd.lo:nd.hi] {
					nd.floorW += c.floorW
					nd.maxW += c.maxW
				}
			}
			nd.maxW = max(min(nd.maxW, st.spec.CapW), nd.floorW)
		}
	}
	h.children = make([]ChildDemand, maxFan)
	return h, nil
}

// Reallocate runs one top-down allocation round: demandW[i] is leaf i's
// reported demand in watts (clamped into the leaf bounds), and the
// returned slice — valid until the next call — holds one positive cap per
// leaf. Deterministic in its inputs; the epoch protocol in the cluster
// layer depends on that for shard invariance.
func (h *Hierarchy) Reallocate(demandW []float64) []float64 {
	leaves := &h.levels[len(h.levels)-1]
	if len(demandW) != len(leaves.nodes) {
		panic(fmt.Sprintf("capping: Reallocate over %d demands, hierarchy has %d leaves",
			len(demandW), len(leaves.nodes)))
	}
	// Bottom-up: each node's demand is its children's, clamped into its
	// bounds.
	below := demandW
	for li := len(h.levels) - 1; li >= 0; li-- {
		st := &h.levels[li]
		for j, nd := range st.nodes {
			dem := 0.0
			for _, d := range below[nd.lo:nd.hi] {
				dem += d
			}
			st.demandW[j] = clampW(dem, nd.floorW, nd.maxW)
		}
		below = st.demandW
	}
	// Top-down: the root's budget is its cap; every node divides
	// grant × oversubscription among its children.
	root := &h.levels[0]
	for j, nd := range root.nodes {
		root.grantW[j] = min(root.spec.CapW, nd.maxW)
	}
	for li := 0; li+1 < len(h.levels); li++ {
		st, next := &h.levels[li], &h.levels[li+1]
		for j, nd := range st.nodes {
			ch := h.children[:nd.hi-nd.lo]
			for k := range ch {
				c := nd.lo + k
				ch[k] = ChildDemand{FloorW: next.nodes[c].floorW, MaxW: next.nodes[c].maxW, DemandW: next.demandW[c]}
			}
			cg := next.grantW[nd.lo:nd.hi]
			st.spec.Alloc.AllocateLevel(st.grantW[j]*st.spec.Oversub, ch, cg)
			for k := range cg {
				cg[k] = min(cg[k], ch[k].MaxW)
			}
		}
	}
	// Fold the round into the per-level stats accumulators.
	h.rounds++
	for li := range h.levels {
		st := &h.levels[li]
		for j, g := range st.grantW {
			st.minGrantW = min(st.minGrantW, g)
			st.maxGrantW = max(st.maxGrantW, g)
			st.sumGrantW += g
			if g < st.demandW[j] {
				st.throttled++
			}
		}
	}
	return leaves.grantW
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
// reports: the spec levels top-down, then the tree's last level, the
// sockets ("socket"), which reports the allocator of the level above.
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
	for li := range h.levels {
		st := &h.levels[li]
		ls := LevelStats{
			Name:      st.spec.Name,
			Nodes:     len(st.nodes),
			Allocator: st.spec.Alloc.Name(),
			Throttled: st.throttled,
		}
		if h.rounds > 0 {
			ls.MinGrantW, ls.MaxGrantW = st.minGrantW, st.maxGrantW
			ls.AvgGrantW = st.sumGrantW / (float64(h.rounds) * float64(len(st.nodes)))
		}
		s.Levels = append(s.Levels, ls)
	}
	return s
}

var (
	_ LevelAllocator = StaticLevel{}
	_ LevelAllocator = WaterfillLevel{}
)
