package queueing

import (
	"rubik/internal/stats"
)

// Responses returns the response latencies in ns of all completions after
// skipping the leading warmupFrac fraction (by completion order). Skipping
// warmup excludes the interval before online-profiled policies (Rubik)
// have built their first model, matching the paper's steady-state
// measurement.
func (r Result) Responses(warmupFrac float64) []float64 {
	cs := TrimWarmup(r.Completions, warmupFrac)
	out := make([]float64, len(cs))
	for i, c := range cs {
		out[i] = c.ResponseNs
	}
	return out
}

// TrimWarmup drops the leading warmupFrac fraction of a completion log,
// int(warmupFrac*len(cs)) entries. It is the one warmup rule every
// measured tail uses, and it is total: a NaN or non-positive fraction
// trims nothing, and a fraction of 1 or more (+Inf included) trims
// everything.
func TrimWarmup(cs []Completion, warmupFrac float64) []Completion {
	if !(warmupFrac > 0) {
		return cs
	}
	if warmupFrac >= 1 {
		return nil
	}
	return cs[int(warmupFrac*float64(len(cs))):]
}

// TailNs returns the q-quantile response latency after warmup. When the
// completion log was streamed out (Config.DropCompletions) it falls back
// to the aggregate response histogram, which covers the whole run —
// warmup cannot be trimmed retroactively from a streamed run.
func (r Result) TailNs(q, warmupFrac float64) float64 {
	if len(r.Completions) == 0 && r.ResponseHist != nil {
		return r.ResponseHist.Quantile(q)
	}
	return PooledTailNs([][]Completion{r.Completions}, q, warmupFrac)
}

// PooledTailNs returns the nearest-rank q-quantile response latency pooled
// over the logs, each trimmed by TrimWarmup first (per core, as in the
// paper's steady-state methodology): stats.PercentileInPlace over that
// pool, selected straight from the logs by stats.PooledPercentile, so the
// pool is never built. It is the one selector behind every logged tail.
func PooledTailNs(logs [][]Completion, q, warmupFrac float64) float64 {
	trimmed := make([][]Completion, len(logs))
	for i, l := range logs {
		trimmed[i] = TrimWarmup(l, warmupFrac)
	}
	return stats.PooledPercentile(trimmed, responseNs, q)
}

func responseNs(c *Completion) float64 { return c.ResponseNs }

// ViolationFrac returns the fraction of post-warmup responses above
// boundNs. Like TailNs it falls back to the aggregate histogram when the
// completion log was streamed out (bucket-resolution estimate over the
// whole run, no warmup trim).
func (r Result) ViolationFrac(boundNs, warmupFrac float64) float64 {
	if len(r.Completions) == 0 && r.ResponseHist != nil {
		return r.ResponseHist.FracAbove(boundNs)
	}
	cs := TrimWarmup(r.Completions, warmupFrac)
	if len(cs) == 0 {
		return 0
	}
	n := 0
	for _, c := range cs {
		if c.ResponseNs > boundNs {
			n++
		}
	}
	return float64(n) / float64(len(cs))
}

// EnergyPerRequestJ returns active core energy per completed request — the
// metric of the paper's Figs. 1a and 9b. Served counts completions even
// when the log itself was streamed out.
func (r Result) EnergyPerRequestJ() float64 {
	n := r.Served
	if n == 0 {
		// Hand-assembled Results may carry a completion log without the
		// counter.
		n = len(r.Completions)
	}
	if n == 0 {
		return 0
	}
	return r.ActiveEnergyJ / float64(n)
}

// Utilization returns the fraction of wall time the core was serving.
func (r Result) Utilization() float64 {
	total := r.ActiveNs + r.IdleNs
	if total == 0 {
		return 0
	}
	return float64(r.ActiveNs) / float64(total)
}
