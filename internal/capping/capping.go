// Package capping coordinates per-core DVFS choices under a shared power
// budget — the system-level layer Rubik itself does not have: each core's
// analytical controller still picks the frequency it *wants* for its tail
// bound, but production sockets and racks run under a cap, so the wanted
// frequencies must be reconciled against Σ P_active(f_i) ≤ CapW per power
// domain. This is the many-core power-capping setting FastCap (Liu et al.)
// formalizes, layered on top of Rubik's per-core control.
//
// The package is deliberately simulation-agnostic: it knows frequencies,
// power curves and slack estimates, not cores or engines. The cluster
// package owns the wiring (when allocation rounds run, how grants are
// actuated, time-weighted accounting); allocators here are pure functions
// from demands to grants over a Domain's precomputed power curve, with all
// scratch owned by the Domain so a decision-rate call path performs zero
// allocations.
package capping

import (
	"fmt"

	"rubik/internal/cpu"
	"rubik/internal/sim"
)

// Demand is one core's input to an allocation round.
type Demand struct {
	// DesiredIdx is the grid index of the frequency the core's own policy
	// asked for. Grants never exceed it: the budget layer only throttles,
	// it does not second-guess the per-core controller upward.
	DesiredIdx int
	// SlackNs is the core's predicted tail slack (headroom to its latency
	// bound) at the current operating point, as reported by a
	// queueing.SlackReporter policy. 0 means none or unknown.
	SlackNs float64
}

// Allocator reconciles per-core desired frequencies against the domain
// budget. Implementations must be deterministic functions of (domain,
// demands): the cluster simulation replays allocation rounds and pins
// results byte-for-byte.
type Allocator interface {
	// Name identifies the strategy in results and reports.
	Name() string
	// Allocate writes a granted grid index per core into grants
	// (len(grants) == len(demands)), honoring grants[i] <= DesiredIdx and
	// Σ power(grants) ≤ CapW whenever the budget admits every core at
	// step 0, the cheapest step. When even that floor exceeds the cap the
	// round is infeasible: every core is granted step 0 and the caller
	// accounts the excess. Allocate must not allocate memory; per-round
	// scratch lives in the Domain.
	Allocate(d *Domain, demands []Demand, grants []int)
}

// Domain is one power domain (socket): the budget, the grid-indexed active
// power curve shared by its member cores, and the allocator scratch. Build
// one per domain and reuse it for every round; it is not safe for
// concurrent use.
type Domain struct {
	capW float64
	grid cpu.Grid
	// power[i] = active power (W) at grid step i. cpu.PowerModel makes it
	// non-decreasing in i, so step 0 is the cheapest step and the last
	// step the costliest.
	power []float64

	// Allocator scratch, sized to the member count: remaining-slack
	// estimates and per-step slack debits for greedy-slack.
	rem   []float64
	debit []float64
}

// NewDomain builds a power domain of cores members with the given budget.
// capW may be +Inf (never binding); zero, negative and NaN caps are
// rejected.
func NewDomain(grid cpu.Grid, model cpu.PowerModel, capW float64, cores int) (*Domain, error) {
	if grid.Len() == 0 {
		return nil, fmt.Errorf("capping: empty frequency grid")
	}
	if err := model.Validate(); err != nil {
		return nil, err
	}
	if !(capW > 0) {
		return nil, fmt.Errorf("capping: cap must be positive, got %v W", capW)
	}
	if cores <= 0 {
		return nil, fmt.Errorf("capping: domain needs at least 1 core, got %d", cores)
	}
	power := make([]float64, grid.Len())
	for i := range power {
		power[i] = model.ActivePower(grid.Step(i))
	}
	return &Domain{
		capW:  capW,
		grid:  grid,
		power: power,
		rem:   make([]float64, cores),
		debit: make([]float64, cores),
	}, nil
}

// CapW returns the domain budget in watts.
func (d *Domain) CapW() float64 { return d.capW }

// SetCapW retargets the domain budget between allocation rounds — the
// hierarchical budget tree re-grants socket caps at epoch barriers. Like
// NewDomain, the cap must be positive; +Inf (never binding) is allowed.
func (d *Domain) SetCapW(w float64) error {
	if !(w > 0) {
		return fmt.Errorf("capping: cap must be positive, got %v W", w)
	}
	d.capW = w
	return nil
}

// MinPowerW returns the cheapest step's active power, power[0].
func (d *Domain) MinPowerW() float64 { return d.power[0] }

// MaxPowerW returns the costliest step's active power — the per-core
// ceiling a budget hierarchy uses to bound leaf demand.
func (d *Domain) MaxPowerW() float64 { return d.power[len(d.power)-1] }

// Grid returns the domain's frequency grid.
func (d *Domain) Grid() cpu.Grid { return d.grid }

// PowerAt returns the active power of grid step idx.
func (d *Domain) PowerAt(idx int) float64 { return d.power[idx] }

// PowerOf sums the active power of a grant vector — the quantity every
// allocator bounds by CapW.
func (d *Domain) PowerOf(grants []int) float64 {
	var sum float64
	for _, g := range grants {
		sum += d.power[g]
	}
	return sum
}

// maxIdxWithin returns the highest grid index whose active power fits
// budget, or -1 when even the minimum step exceeds it. The curve is
// non-decreasing, so the scan stops at the first step that does not fit;
// grids are a dozen steps.
func (d *Domain) maxIdxWithin(budget float64) int {
	best := -1
	for i, p := range d.power {
		if p > budget {
			break
		}
		best = i
	}
	return best
}

// DomainStats is the per-domain accounting a capped cluster run reports.
type DomainStats struct {
	// CapW is the domain budget; Allocator the strategy name.
	CapW      float64
	Allocator string
	// Rounds counts allocation rounds (one per member decision that
	// changed its demand, plus the initial round).
	Rounds int
	// ThrottleEvents counts rounds in which at least one member was
	// granted less than its desired frequency — the cap was binding.
	ThrottleEvents int
	// CapExceededNs is simulated time during which even the enforced
	// allocation exceeded the cap: the domain was infeasible (all members
	// at the minimum step still overflow the budget). Zero whenever
	// CapW >= members * P_active(min).
	CapExceededNs sim.Time
	// PeakPowerW is the largest granted power sum over all rounds; with a
	// feasible cap it never exceeds CapW.
	PeakPowerW float64
	// AvgPowerW is the time-weighted mean granted power over the run.
	AvgPowerW float64
}

// ByName returns a fresh allocator by strategy name.
func ByName(name string) (Allocator, error) {
	switch name {
	case "uniform":
		return Uniform{}, nil
	case "greedy-slack":
		return GreedySlack{}, nil
	case "waterfill":
		return Waterfill{}, nil
	}
	return nil, fmt.Errorf("capping: unknown allocator %q (have uniform, greedy-slack, waterfill)", name)
}

// Names lists the registered allocator strategies in sweep order.
func Names() []string { return []string{"uniform", "greedy-slack", "waterfill"} }
