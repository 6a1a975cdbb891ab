package stats

import (
	"fmt"
	"math"
)

// PMF is a discrete probability mass function over equal-width buckets.
// Bucket k covers the half-open value interval
// [Origin + k*Width, Origin + (k+1)*Width).
//
// PMFs are the core representation behind Rubik's target tail tables: the
// per-request compute-cycle distribution P[C] and memory-time distribution
// P[M] are estimated as PMFs, conditioned on elapsed work, and convolved to
// obtain the completion distributions of queued requests.
type PMF struct {
	Origin float64
	Width  float64
	P      []float64
}

// bucketWidth returns the width of nbuckets equal buckets spanning
// [lo, hi], lo < hi. It rejects a span so wide that it overflows or so
// narrow that the width underflows to 0: samples could not be assigned a
// bucket index.
func bucketWidth(lo, hi float64, nbuckets int) (float64, error) {
	w := (hi - lo) / float64(nbuckets)
	if !(w > 0) || math.IsInf(w, 0) {
		return 0, fmt.Errorf("stats: sample span [%g, %g] cannot be split into %d buckets", lo, hi, nbuckets)
	}
	return w, nil
}

// midpoint returns the representative value of bucket k.
func (d PMF) midpoint(k int) float64 {
	return d.Origin + (float64(k)+0.5)*d.Width
}

// Mean returns the expected value, using bucket midpoints.
func (d PMF) Mean() float64 {
	var m float64
	for k, v := range d.P {
		m += v * d.midpoint(k)
	}
	return m
}

// Variance returns the variance, using bucket midpoints.
func (d PMF) Variance() float64 { return d.varianceAbout(d.Mean()) }

// MeanVariance returns Mean and Variance from one Mean pass, bit for bit
// what the two calls return.
func (d PMF) MeanVariance() (mean, variance float64) {
	mean = d.Mean()
	return mean, d.varianceAbout(mean)
}

// varianceAbout returns the second moment about mean, using bucket
// midpoints.
func (d PMF) varianceAbout(mean float64) float64 {
	var v float64
	for k, p := range d.P {
		dx := d.midpoint(k) - mean
		v += p * dx * dx
	}
	return v
}

// Quantile returns the value x such that P[X <= x] >= q, using the right
// edge of the bucket where the CDF crosses q. Using the right edge is
// deliberately conservative: Rubik treats the returned value as "the work
// that must complete by the deadline", so rounding up can only raise the
// chosen frequency, never violate the tail. q outside (0, 1] is clamped.
func (d PMF) Quantile(q float64) float64 {
	if len(d.P) == 0 {
		return 0
	}
	if q <= 0 {
		return d.Origin
	}
	if q > 1 {
		q = 1
	}
	var mass float64
	for _, p := range d.P {
		mass += p
	}
	target := q * mass
	var cum float64
	for k, p := range d.P {
		cum += p
		if cum >= target-1e-12 {
			return d.Origin + float64(k+1)*d.Width
		}
	}
	return d.Origin + float64(len(d.P))*d.Width
}

// CumSumInto fills dst with the running mass cum[k] = P[0] + ... + P[k],
// accumulated in index order — the exact running sum Quantile forms
// internally — reusing dst's backing array when its capacity allows. One
// CumSumInto per rebuild lets QuantileFromCum answer every row-bound
// quantile without rescanning the PMF.
func (d PMF) CumSumInto(dst []float64) []float64 {
	if cap(dst) < len(d.P) {
		dst = make([]float64, len(d.P))
	} else {
		dst = dst[:len(d.P)]
	}
	var cum float64
	for k, p := range d.P {
		cum += p
		dst[k] = cum
	}
	return dst
}

// QuantileFromCum is Quantile answered from a precomputed CumSumInto
// running mass instead of a fresh linear scan. For PMFs with
// nonnegative entries (every profiled or convolved PMF) the running
// mass is nondecreasing, so a binary search finds the same first
// crossing the scan does and the result is bitwise-identical to
// Quantile's — the property tests pin that.
func (d PMF) QuantileFromCum(cum []float64, q float64) float64 {
	if len(d.P) == 0 {
		return 0
	}
	if q <= 0 {
		return d.Origin
	}
	if q > 1 {
		q = 1
	}
	// cum[len-1] is the same running total Quantile computes, bit for bit.
	target := q*cum[len(cum)-1] - 1e-12
	lo, hi := 0, len(cum) // first k with cum[k] >= target
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if cum[mid] >= target {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo < len(cum) {
		return d.Origin + float64(lo+1)*d.Width
	}
	return d.Origin + float64(len(d.P))*d.Width
}

// ConditionAtLeastInto returns the distribution of X - omega given
// X > omega:
//
//	P[X0 = c] = P[X = c + omega | X > omega]
//
// This is the paper's shift-and-rescale used to model the remaining work
// of the request currently being served (Sec. 4.1). Conditioning happens
// at a bucket boundary at or below omega, which is conservative (it can
// only overestimate remaining work). If omega exhausts the support, a
// degenerate PMF at the final bucket width is returned so callers always
// get a usable distribution.
//
// The result is written into buf's backing array (grown only when too
// small): the rebuild conditions the same distribution once per table row
// and cannot afford a fresh slice per row. buf must not alias d.P. The
// returned PMF is bitwise-identical to the naive oracle's
// ConditionAtLeast.
func (d PMF) ConditionAtLeastInto(buf []float64, omega float64) PMF {
	if len(d.P) == 0 {
		return d
	}
	fit := func(n int) []float64 {
		if cap(buf) < n {
			return make([]float64, n)
		}
		return buf[:n]
	}
	if omega <= d.Origin {
		out := fit(len(d.P))
		copy(out, d.P)
		return PMF{Origin: d.Origin - omega, Width: d.Width, P: out}
	}
	// The epsilon keeps conditioning exactly at a bucket boundary from
	// rounding down into the previous bucket.
	k := int((omega-d.Origin)/d.Width + 1e-9)
	if k >= len(d.P) {
		out := fit(1)
		out[0] = 1
		return PMF{Origin: 0, Width: d.Width, P: out}
	}
	rest := fit(len(d.P) - k)
	copy(rest, d.P[k:])
	var mass float64
	for _, v := range rest {
		mass += v
	}
	if mass <= 0 {
		out := fit(1)
		out[0] = 1
		return PMF{Origin: 0, Width: d.Width, P: out}
	}
	for i := range rest {
		rest[i] /= mass
	}
	return PMF{Origin: 0, Width: d.Width, P: rest}
}

// Percentile returns the q-quantile of a sample slice by the nearest-rank
// method, leaving samples untouched (it selects over a copy). It is the
// definition used for all measured tail latencies in the reproduction;
// see PercentileInPlace for the rank and NaN rules.
func Percentile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := make([]float64, len(samples))
	copy(s, samples)
	return PercentileInPlace(s, q)
}

// PercentileInPlace returns the nearest-rank q-quantile of s, reordering s
// in place: the element sort.Float64s(s) would leave at index
// ceil(q*len(s))-1, found by an O(n) quickselect instead of a sort. q <= 0
// selects the minimum, q >= 1 the maximum; a NaN q returns NaN and an
// empty s returns 0. NaN samples rank below everything, as sort.Float64s
// orders them: a pre-pass swaps them to the front, so a rank that falls
// among them returns NaN and any other rank selects in the remainder.
// Because the result is the order statistic itself, it equals the
// sort-then-index value on every input, with one caveat the sort shares:
// -0 and +0 compare equal, and which of them sort.Float64s (an unstable
// sort) would leave at the rank is not defined, so neither is which one
// is returned here.
func PercentileInPlace(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	rank := NearestRank(len(s), q)
	if rank < 0 {
		return math.NaN()
	}
	nans := 0
	for i, v := range s {
		if v != v {
			s[i], s[nans] = s[nans], v
			nans++
		}
	}
	if rank < nans {
		return math.NaN()
	}
	return selectKth(s[nans:], rank-nans)
}

// PercentileSorted is Percentile for an already-sorted slice (no copy).
func PercentileSorted(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := NearestRank(len(sorted), q)
	if rank < 0 {
		return math.NaN()
	}
	return sorted[rank]
}

// NearestRank returns the 0-based index of the nearest-rank q-quantile
// among n > 0 sorted samples, ceil(q*n)-1 clamped to [0, n-1], or -1 for
// a NaN q. It is the one rank rule behind every percentile here.
func NearestRank(n int, q float64) int {
	switch {
	case q <= 0:
		return 0
	case q >= 1:
		return n - 1
	case q != q:
		return -1
	}
	rank := int(math.Ceil(q*float64(n))) - 1
	return min(max(rank, 0), n-1)
}
