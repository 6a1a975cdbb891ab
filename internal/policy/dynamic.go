package policy

import (
	"rubik/internal/cpu"
	"rubik/internal/sim"
	"rubik/internal/workload"
)

// DynamicOracleResult reports the per-request frequency schedule
// DynamicOracle found and its replay.
type DynamicOracleResult struct {
	Freqs      []int
	Result     ReplayResult
	Violations int
	// Reductions counts accepted one-step frequency reductions.
	Reductions int
}

type reduceCand struct {
	idx    int
	saving float64
}

// candHeap is a by-value max-heap of reduction candidates ordered by
// energy saving — the repo's by-value heap idiom: no container/heap
// indirection, no `any` boxing on push/pop. The maximum sits at index 0
// for the peek in the lazy-revalidation loop.
type candHeap []reduceCand

func (h candHeap) len() int { return len(h) }

func (h *candHeap) push(c reduceCand) {
	s := append(*h, c)
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if s[p].saving >= s[i].saving {
			break
		}
		s[i], s[p] = s[p], s[i]
		i = p
	}
	*h = s
}

func (h *candHeap) pop() reduceCand {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s = s[:n]
	*h = s
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		big := i
		if l < n && s[l].saving > s[big].saving {
			big = l
		}
		if r < n && s[r].saving > s[big].saving {
			big = r
		}
		if big == i {
			break
		}
		s[i], s[big] = s[big], s[i]
		i = big
	}
	return top
}

// DynamicOracle finds a per-request frequency schedule that minimizes
// energy while keeping the tail within the bound, following paper Sec. 5.3:
// "It first computes, for each request, the lowest frequency that meets the
// latency bound. Then, it progressively reduces frequencies until 5% of the
// requests are above the tail bound (if achievable), prioritizing the
// reductions that save most power."
//
// Implementation: start from the maximum frequency everywhere (the
// fewest-violations schedule) and greedily apply one-step per-request
// frequency reductions in order of energy saved. Each candidate reduction
// is validated by locally re-propagating the FIFO schedule (the effect of a
// reduction dies out at the next idle gap); it is accepted if it saves
// energy and keeps the number of bound violations within the tail's 5%
// budget. A request keeps collecting further reductions until it hits its
// per-request energy-optimal frequency or the budget refuses.
func DynamicOracle(tr workload.Trace, grid cpu.Grid, boundNs, percentile float64, cfg ReplayConfig) (DynamicOracleResult, error) {
	if err := validateOracle(tr, boundNs, percentile); err != nil {
		return DynamicOracleResult{}, err
	}
	n := len(tr.Requests)
	reqs := tr.Requests
	fmax := grid.Max()
	fmin := grid.Min()

	freqs := make([]int, n)
	dones := make([]sim.Time, n)
	energy := make([]float64, n)

	serve := func(i, f int, donePrev sim.Time) (sim.Time, float64) {
		done, service := fifoStep(reqs[i], f, donePrev, cfg.WakeLatency)
		return done, cfg.Power.ActivePower(f) * service / 1e9
	}

	// Initial schedule: everything at max frequency.
	violations := 0
	donePrev := noPrev
	for i := 0; i < n; i++ {
		freqs[i] = fmax
		done, e := serve(i, fmax, donePrev)
		dones[i] = done
		energy[i] = e
		if float64(done-reqs[i].Arrival) > boundNs {
			violations++
		}
		donePrev = done
	}
	budget := ViolationBudget(n, percentile) - violations
	if budget < 0 {
		budget = 0
	}

	stepDown := func(f int) (int, bool) {
		idx := grid.Index(f)
		if idx <= 0 {
			return f, false
		}
		return grid.Step(idx - 1), true
	}
	ownSaving := func(i int) (float64, bool) {
		lower, ok := stepDown(freqs[i])
		if !ok {
			return 0, false
		}
		_, eNow := serve(i, freqs[i], prevDone(dones, i))
		_, eLow := serve(i, lower, prevDone(dones, i))
		return eNow - eLow, true
	}

	h := &candHeap{}
	for i := 0; i < n; i++ {
		if s, ok := ownSaving(i); ok && s > 0 {
			h.push(reduceCand{idx: i, saving: s})
		}
	}

	reductions := 0
	scratchF := make([]int, 0, 256)
	scratchD := make([]sim.Time, 0, 256)
	scratchE := make([]float64, 0, 256)
	for h.len() > 0 {
		c := h.pop()
		i := c.idx
		if freqs[i] == fmin {
			continue
		}
		// Lazy revalidation: the saving may be stale after other accepts.
		saving, ok := ownSaving(i)
		if !ok || saving <= 0 {
			continue
		}
		if saving < c.saving*0.999 && h.len() > 0 && saving < (*h)[0].saving {
			h.push(reduceCand{idx: i, saving: saving})
			continue
		}
		lower, _ := stepDown(freqs[i])

		// Trial: propagate from i with freqs[i]=lower until the schedule
		// reconverges with the old one.
		scratchF = scratchF[:0]
		scratchD = scratchD[:0]
		scratchE = scratchE[:0]
		dPrev := prevDone(dones, i)
		var dE float64
		dViol := 0
		for j := i; j < n; j++ {
			f := freqs[j]
			if j == i {
				f = lower
			} else if dPrev == dones[j-1] {
				break // reconverged: the rest of the schedule is unchanged
			}
			done, e := serve(j, f, dPrev)
			scratchF = append(scratchF, f)
			scratchD = append(scratchD, done)
			scratchE = append(scratchE, e)
			dE += e - energy[j]
			oldViol := float64(dones[j]-reqs[j].Arrival) > boundNs
			newViol := float64(done-reqs[j].Arrival) > boundNs
			if newViol && !oldViol {
				dViol++
			} else if !newViol && oldViol {
				dViol--
			}
			dPrev = done
		}
		if dE >= 0 || dViol > budget {
			continue
		}
		for k := 0; k < len(scratchF); k++ {
			freqs[i+k] = scratchF[k]
			dones[i+k] = scratchD[k]
			energy[i+k] = scratchE[k]
		}
		violations += dViol
		budget -= dViol
		reductions++
		if s, ok := ownSaving(i); ok && s > 0 {
			h.push(reduceCand{idx: i, saving: s})
		}
	}

	final, err := Replay(tr, freqs, cfg)
	if err != nil {
		return DynamicOracleResult{}, err
	}
	return DynamicOracleResult{
		Freqs:      freqs,
		Result:     final,
		Violations: final.ViolationCount(boundNs),
		Reductions: reductions,
	}, nil
}

func prevDone(dones []sim.Time, i int) sim.Time {
	if i == 0 {
		return noPrev
	}
	return dones[i-1]
}
