package capping

// Uniform splits the budget into equal per-core shares: every core is
// granted the highest step whose active power fits CapW / members, capped
// at its desired frequency. Headroom a lightly-loaded core leaves unused
// is NOT redistributed — that rigidity is the point of the baseline: the
// gap to greedy-slack and waterfill at the same cap measures what
// demand-aware coordination buys.
type Uniform struct{}

// Name implements Allocator.
func (Uniform) Name() string { return "uniform" }

// Allocate implements Allocator.
func (Uniform) Allocate(d *Domain, demands []Demand, grants []int) {
	share := d.capW / float64(len(demands))
	// When not even step 0 fits the share the round is infeasible and
	// every core gets step 0.
	lid := max(d.maxIdxWithin(share), 0)
	for i, dem := range demands {
		grants[i] = min(lid, dem.DesiredIdx)
	}
}

// GreedySlack grants every core its desired frequency when the budget
// admits it; when it does not, cores donate headroom in order of predicted
// tail slack — the core that can best afford to run slower throttles
// first, one grid step at a time. Each donated step debits the donor's
// slack estimate linearly (a core reaching the minimum step is modeled as
// having spent its entire predicted slack), so donation spreads across
// slack-rich cores instead of bottoming one out. Ties break to the lowest
// core index, keeping rounds deterministic.
type GreedySlack struct{}

// Name implements Allocator.
func (GreedySlack) Name() string { return "greedy-slack" }

// Allocate implements Allocator.
func (GreedySlack) Allocate(d *Domain, demands []Demand, grants []int) {
	for i, dem := range demands {
		grants[i] = dem.DesiredIdx
	}
	sum := d.PowerOf(grants)
	if sum <= d.capW {
		return
	}
	rem := d.rem[:len(demands)]
	debit := d.debit[:len(demands)]
	for i, dem := range demands {
		rem[i] = dem.SlackNs
		if dem.DesiredIdx > 0 {
			debit[i] = dem.SlackNs / float64(dem.DesiredIdx)
		} else {
			debit[i] = 0
		}
	}
	for sum > d.capW {
		// Donate from the core with the most remaining slack; among equal
		// slacks (common while controllers bootstrap and report 0) shed
		// from the highest-granted core, so ties equalize levels instead
		// of bottoming the lowest index out to the minimum step. Final tie
		// to the lowest index keeps rounds deterministic.
		donor := -1
		for i := range demands {
			if grants[i] == 0 {
				continue
			}
			if donor < 0 || rem[i] > rem[donor] ||
				(rem[i] == rem[donor] && grants[i] > grants[donor]) {
				donor = i
			}
		}
		if donor < 0 {
			// All donors exhausted: every core is at step 0 and the round
			// is infeasible; the caller accounts the excess.
			return
		}
		grants[donor]--
		sum -= d.power[grants[donor]+1] - d.power[grants[donor]]
		rem[donor] -= debit[donor]
	}
}

// Waterfill is FastCap-style iterative water-filling on the power curve:
// start every core at step 0, the cheapest step, and repeatedly raise the
// lowest-granted core (ties to the lowest index) whose next step both
// stays at or below its desired frequency and fits the remaining budget,
// until no raise fits. Budget flows to the cores that asked for it —
// idle-ish cores desiring low frequencies leave their share to loaded
// ones — while the raise-lowest-first order keeps the grant vector
// max-min fair (leximin-optimal on the shared power curve; the
// brute-force reference test pins this).
type Waterfill struct{}

// Name implements Allocator.
func (Waterfill) Name() string { return "waterfill" }

// Allocate implements Allocator.
func (Waterfill) Allocate(d *Domain, demands []Demand, grants []int) {
	// Feasible short-circuit: when every desire fits the budget, the raise
	// loop below provably ends at the desires — skip straight there. This
	// keeps the per-decision cost O(cores) whenever the cap is not
	// binding, which is most rounds of a well-provisioned domain.
	for i, dem := range demands {
		grants[i] = dem.DesiredIdx
	}
	if d.PowerOf(grants) <= d.capW {
		return
	}
	clear(grants)
	sum := d.PowerOf(grants)
	if sum > d.capW {
		return // infeasible even with every core at step 0
	}
	for {
		next := -1
		for i, dem := range demands {
			if grants[i] >= dem.DesiredIdx {
				continue
			}
			if d.power[grants[i]+1]-d.power[grants[i]] > d.capW-sum {
				continue
			}
			if next < 0 || grants[i] < grants[next] {
				next = i
			}
		}
		if next < 0 {
			// The running sum accumulates one rounding per raise; the
			// grants themselves are exact indices, so callers re-deriving
			// Σ PowerAt(grant) stay within float error of the check above.
			return
		}
		grants[next]++
		sum += d.power[grants[next]] - d.power[grants[next]-1]
	}
}

var (
	_ Allocator = Uniform{}
	_ Allocator = GreedySlack{}
	_ Allocator = Waterfill{}
)
