package stats

import (
	"fmt"
	"math"
)

// LogHistogram is a fixed-size geometric-bucket histogram for streaming
// quantile estimates over positive values spanning several decades
// (response latencies). Memory is constant — a few hundred counters —
// regardless of how many values are observed, which is what lets the
// streaming simulation paths drop the per-request completion log while
// still reporting tails. Bucket i covers [Lo·r^i, Lo·r^(i+1)); the
// relative quantile error is bounded by the bucket ratio r.
type LogHistogram struct {
	lo       float64
	logLo    float64
	logRatio float64
	counts   []uint64
	under    uint64 // values below lo (reported as lo)
	over     uint64 // values at or above the top edge (reported as the top edge)
	total    uint64
	sum      float64
}

// NewLogHistogram builds a histogram covering [lo, hi) with perDecade
// geometric buckets per factor-of-10.
func NewLogHistogram(lo, hi float64, perDecade int) (*LogHistogram, error) {
	if lo <= 0 || hi <= lo {
		return nil, fmt.Errorf("stats: log histogram needs 0 < lo < hi, got [%g, %g)", lo, hi)
	}
	if perDecade <= 0 {
		return nil, fmt.Errorf("stats: log histogram needs perDecade > 0, got %d", perDecade)
	}
	n := int(math.Ceil(math.Log10(hi/lo) * float64(perDecade)))
	if n < 1 {
		n = 1
	}
	return &LogHistogram{
		lo:       lo,
		logLo:    math.Log(lo),
		logRatio: math.Ln10 / float64(perDecade),
		counts:   make([]uint64, n),
	}, nil
}

// NewResponseHistogram returns the histogram geometry the streaming
// simulation paths use for response latencies: 100 ns to 1000 s at 32
// buckets per decade (≈7.5% relative bucket width).
func NewResponseHistogram() *LogHistogram {
	h, err := NewLogHistogram(100, 1e12, 32)
	if err != nil {
		panic(err) // constants above are valid
	}
	return h
}

// Observe records one value. Non-positive and below-range values land in
// the underflow bucket; values at or above the top edge in the overflow
// bucket.
func (h *LogHistogram) Observe(v float64) {
	h.total++
	h.sum += v
	if v < h.lo {
		h.under++
		return
	}
	i := int((math.Log(v) - h.logLo) / h.logRatio)
	if i >= len(h.counts) {
		h.over++
		return
	}
	if i < 0 { // float rounding at the lower edge
		i = 0
	}
	h.counts[i]++
}

// Count returns the number of observed values.
func (h *LogHistogram) Count() uint64 { return h.total }

// Mean returns the exact mean of the observed values (the sum is tracked
// outside the buckets).
func (h *LogHistogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return h.sum / float64(h.total)
}

// edge returns the lower edge of bucket i.
func (h *LogHistogram) edge(i int) float64 {
	return math.Exp(h.logLo + float64(i)*h.logRatio)
}

// Quantile returns the nearest-rank q-quantile, reported as the geometric
// midpoint of the bucket holding the rank (the maximum relative error is
// half the bucket width). Returns 0 when empty. As in
// PercentileInPlace, q <= 0 reports the minimum's bucket, q >= 1 the
// maximum's, and a NaN q returns NaN.
func (h *LogHistogram) Quantile(q float64) float64 {
	if h.total == 0 {
		return 0
	}
	if q != q {
		return math.NaN()
	}
	rank := uint64(1)
	if q > 0 {
		rank = uint64(math.Ceil(min(q, 1) * float64(h.total)))
	}
	if rank > h.total {
		rank = h.total
	}
	if rank <= h.under {
		return h.lo
	}
	seen := h.under
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			return math.Sqrt(h.edge(i) * h.edge(i+1))
		}
	}
	return h.edge(len(h.counts))
}

// FracAbove returns the fraction of observed values above v, to bucket
// resolution: whole buckets strictly above v count fully, and the bucket
// containing v counts iff its geometric midpoint exceeds v (the same
// midpoint convention Quantile reports). Returns 0 when empty.
func (h *LogHistogram) FracAbove(v float64) float64 {
	if h.total == 0 {
		return 0
	}
	above := h.over
	if v < h.lo {
		above += h.under
		for _, c := range h.counts {
			above += c
		}
		return float64(above) / float64(h.total)
	}
	i := int((math.Log(v) - h.logLo) / h.logRatio)
	if i >= len(h.counts) {
		return float64(above) / float64(h.total)
	}
	if i < 0 {
		i = 0
	}
	for j := i + 1; j < len(h.counts); j++ {
		above += h.counts[j]
	}
	if math.Sqrt(h.edge(i)*h.edge(i+1)) > v {
		above += h.counts[i]
	}
	return float64(above) / float64(h.total)
}

// Merge adds another histogram's counts into h. Both must share the same
// geometry (same lo and buckets), which all NewResponseHistogram
// instances do.
func (h *LogHistogram) Merge(o *LogHistogram) error {
	if o == nil {
		return nil
	}
	if h.lo != o.lo || h.logRatio != o.logRatio || len(h.counts) != len(o.counts) {
		return fmt.Errorf("stats: merging log histograms with different geometry")
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.under += o.under
	h.over += o.over
	h.total += o.total
	h.sum += o.sum
	return nil
}
