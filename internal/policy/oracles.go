package policy

import (
	"fmt"
	"math"
	"sort"

	"rubik/internal/cpu"
	"rubik/internal/stats"
	"rubik/internal/workload"
)

// StaticOracleResult reports the frequency StaticOracle chose and the
// replay at that frequency.
type StaticOracleResult struct {
	MHz      int
	Feasible bool
	Result   ReplayResult
}

// StaticOracle chooses the lowest static frequency whose replay of the
// trace meets the tail bound (paper Sec. 5.2). It upper-bounds the savings
// of feedback controllers such as Pegasus. When even the maximum frequency
// cannot meet the bound, it returns the maximum with Feasible=false
// (matching the shaded "unachievable" regions of Fig. 9).
func StaticOracle(tr workload.Trace, grid cpu.Grid, boundNs, percentile float64, cfg ReplayConfig) (StaticOracleResult, error) {
	if err := validateOracle(tr, boundNs, percentile); err != nil {
		return StaticOracleResult{}, err
	}
	allowed := ViolationBudget(len(tr.Requests), percentile)
	var last StaticOracleResult
	for _, f := range grid.Steps() {
		res, err := Replay(tr, UniformAssignment(len(tr.Requests), f), cfg)
		if err != nil {
			return StaticOracleResult{}, err
		}
		last = StaticOracleResult{MHz: f, Result: res}
		if res.ViolationCount(boundNs) <= allowed {
			last.Feasible = true
			return last, nil
		}
	}
	return last, nil
}

// validateOracle checks what every oracle needs: a non-empty trace, a
// finite positive latency bound and a tail percentile in (0, 1), the
// target core.New checks for Rubik. A NaN bound would count no response
// as a violation, and a NaN percentile would let every response violate.
func validateOracle(tr workload.Trace, boundNs, percentile float64) error {
	if len(tr.Requests) == 0 {
		return fmt.Errorf("policy: empty trace")
	}
	if !(boundNs > 0) || math.IsInf(boundNs, 0) {
		return fmt.Errorf("policy: latency bound must be positive and finite, got %v", boundNs)
	}
	if !(percentile > 0 && percentile < 1) {
		return fmt.Errorf("policy: tail percentile %v out of (0,1)", percentile)
	}
	return nil
}

// ViolationBudget returns how many of n responses may exceed the bound
// while the percentile-tail still meets it: the measured tail is the
// stats.NearestRank response, so only the responses above it may violate
// (0 when n is 0).
func ViolationBudget(n int, percentile float64) int {
	if n <= 0 {
		return 0
	}
	return n - 1 - stats.NearestRank(n, percentile)
}

// AdrenalineOracleResult reports the chosen configuration: requests whose
// total work (at nominal frequency) is at least ThresholdNs are "long" and
// are boosted to HighMHz; the rest run at LowMHz.
type AdrenalineOracleResult struct {
	ThresholdNs    float64
	LowMHz         int
	HighMHz        int
	Feasible       bool
	Result         ReplayResult
	SweepEvaluated int
}

// AdrenalineOracle implements the idealized Adrenaline of paper Sec. 5.2:
// it can perfectly distinguish long requests from short ones (the real
// system approximates this with application-level hints), sweeps the
// long/short threshold and the (boosted, unboosted) frequency pair offline,
// and picks the feasible setting with the lowest energy. Queuing is not
// modeled explicitly — exactly the limitation the paper identifies.
func AdrenalineOracle(tr workload.Trace, grid cpu.Grid, boundNs, percentile float64, cfg ReplayConfig) (AdrenalineOracleResult, error) {
	if err := validateOracle(tr, boundNs, percentile); err != nil {
		return AdrenalineOracleResult{}, err
	}
	n := len(tr.Requests)
	// Oracular request lengths: true total work at nominal frequency.
	work := make([]float64, n)
	for i, r := range tr.Requests {
		work[i] = r.ServiceNs(cpu.NominalMHz)
	}
	sorted := make([]float64, n)
	copy(sorted, work)
	sort.Float64s(sorted)

	thresholds := []float64{}
	for _, q := range []float64{0.50, 0.60, 0.70, 0.75, 0.80, 0.85, 0.90, 0.95} {
		idx := int(q * float64(n))
		if idx >= n {
			idx = n - 1
		}
		thresholds = append(thresholds, sorted[idx])
	}

	best := AdrenalineOracleResult{}
	bestEnergy := 0.0
	evaluated := 0
	allowed := ViolationBudget(n, percentile)
	freqs := make([]int, n)
	steps := grid.Steps()
	for _, th := range thresholds {
		for li, lo := range steps {
			for _, hi := range steps[li:] {
				for i := range freqs {
					if work[i] >= th {
						freqs[i] = hi
					} else {
						freqs[i] = lo
					}
				}
				res, err := Replay(tr, freqs, cfg)
				if err != nil {
					return AdrenalineOracleResult{}, err
				}
				evaluated++
				if res.ViolationCount(boundNs) > allowed {
					continue
				}
				if !best.Feasible || res.ActiveEnergyJ < bestEnergy {
					best = AdrenalineOracleResult{
						ThresholdNs: th,
						LowMHz:      lo,
						HighMHz:     hi,
						Feasible:    true,
						Result:      res,
					}
					bestEnergy = res.ActiveEnergyJ
				}
			}
		}
	}
	best.SweepEvaluated = evaluated
	if !best.Feasible {
		// Fall back to flat-out max frequency, like the other schemes.
		res, err := Replay(tr, UniformAssignment(n, grid.Max()), cfg)
		if err != nil {
			return AdrenalineOracleResult{}, err
		}
		best.Result = res
		best.LowMHz = grid.Max()
		best.HighMHz = grid.Max()
	}
	return best, nil
}
