// Package policy implements the DVFS schemes Rubik is evaluated against:
// the Fixed-frequency baseline (queueing.FixedPolicy), StaticOracle,
// AdrenalineOracle and DynamicOracle (paper Secs. 5.2-5.3), and a
// Pegasus-style feedback controller. The oracles are trace-driven: they
// assign each request a serving frequency offline and are evaluated with an
// analytic FIFO replay, mirroring the paper's trace-driven methodology.
package policy

import (
	"fmt"
	"math"

	"rubik/internal/cpu"
	"rubik/internal/sim"
	"rubik/internal/stats"
	"rubik/internal/workload"
)

// ReplayConfig parameterizes the analytic replay.
type ReplayConfig struct {
	// Power is the core power model used for energy accounting.
	Power cpu.PowerModel
	// WakeLatency is the sleep-exit penalty paid by the first request of
	// each busy period, matching the event-driven simulator.
	WakeLatency sim.Time
}

// DefaultReplayConfig matches queueing.DefaultConfig.
func DefaultReplayConfig() ReplayConfig {
	return ReplayConfig{
		Power:       cpu.DefaultPowerModel(),
		WakeLatency: 5 * sim.Microsecond,
	}
}

// ReplayResult summarizes an analytic replay.
type ReplayResult struct {
	// ResponsesNs[i] is request i's end-to-end latency.
	ResponsesNs []float64
	// Dones[i] is request i's completion time.
	Dones []sim.Time
	// ActiveEnergyJ is the core energy spent serving.
	ActiveEnergyJ float64
}

// TailNs returns the q-quantile response latency (ResponsesNs is left
// untouched: the selection runs over a copy).
func (r ReplayResult) TailNs(q float64) float64 {
	return stats.Percentile(r.ResponsesNs, q)
}

// EnergyPerRequestJ returns active energy per request.
func (r ReplayResult) EnergyPerRequestJ() float64 {
	if len(r.ResponsesNs) == 0 {
		return 0
	}
	return r.ActiveEnergyJ / float64(len(r.ResponsesNs))
}

// ViolationCount returns how many responses exceed boundNs.
func (r ReplayResult) ViolationCount(boundNs float64) int {
	n := 0
	for _, v := range r.ResponsesNs {
		if v > boundNs {
			n++
		}
	}
	return n
}

// Replay computes FIFO completions analytically when request i is served
// entirely at freqs[i] MHz: start_i = max(arrival_i, done_{i-1}). This is
// exact for schemes with per-request-constant frequencies (the oracles) and
// matches the event-driven simulator at a fixed frequency.
func Replay(tr workload.Trace, freqs []int, cfg ReplayConfig) (ReplayResult, error) {
	if len(freqs) != len(tr.Requests) {
		return ReplayResult{}, fmt.Errorf("policy: %d frequencies for %d requests",
			len(freqs), len(tr.Requests))
	}
	res := ReplayResult{
		ResponsesNs: make([]float64, len(tr.Requests)),
		Dones:       make([]sim.Time, len(tr.Requests)),
	}
	donePrev := noPrev
	var fPrev int
	var watts float64
	for i, req := range tr.Requests {
		f := freqs[i]
		if f <= 0 {
			return ReplayResult{}, fmt.Errorf("policy: request %d has frequency %d", i, f)
		}
		if f != fPrev { // evaluate the power model once per frequency change
			fPrev, watts = f, cfg.Power.ActivePower(f)
		}
		done, service := fifoStep(req, f, donePrev, cfg.WakeLatency)
		res.Dones[i] = done
		res.ResponsesNs[i] = float64(done - req.Arrival)
		res.ActiveEnergyJ += watts * service / 1e9
		donePrev = done
	}
	return res, nil
}

// noPrev is the previous completion time of a trace's first request: it
// precedes every arrival, so that request starts a busy period.
const noPrev sim.Time = math.MinInt64

// fifoStep serves req entirely at f MHz on a FIFO core whose previous
// request completed at donePrev. The request starts at its arrival and
// pays the wake latency when the core is idle, or at donePrev when the
// busy period continues. It returns the completion time and the service
// time in ns, wake included.
func fifoStep(req workload.Request, f int, donePrev, wakeLatency sim.Time) (done sim.Time, serviceNs float64) {
	start := req.Arrival
	wake := float64(wakeLatency)
	if donePrev > start {
		start = donePrev
		wake = 0 // busy period continues
	}
	service := req.ServiceNs(f) + wake
	// Ceil matches the event-driven simulator's completion rounding.
	return sim.AddSpan(start, sim.SpanNs(math.Ceil(service))), service
}

// UniformAssignment returns a frequency assignment serving every request at
// fMHz.
func UniformAssignment(n, fMHz int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = fMHz
	}
	return out
}
