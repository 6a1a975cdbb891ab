package stats

import (
	"fmt"
	"math"
)

// Histogram is a streaming profiler over a sliding window of the most
// recent capacity samples (NewHistogram): a ring buffer plus the window's cached
// extrema, giving O(1) ingest. PMFInto then bins the window into a
// caller-owned PMF without allocating.
//
// Push keeps the cached (lo, hi) with strict comparisons, the rule a
// from-scratch min/max scan applies oldest-first, so among tied extrema
// (+0 and -0) the oldest wins. Evicting a sample equal to either extremum
// marks the cache stale, and the next PMFInto rescans the window
// oldest-first by the same rule. A window that never fills never
// rescans, and one that does rescans at most once per PMFInto, whose
// binning pass already reads the whole window.
//
// It replaces the append-then-copy sample slices on Rubik's profiling path:
// those cost O(HistoryCap) per completion once the window is full (the
// trim copies the whole window) and a fresh sort/scan plus allocation per
// table rebuild. The histogram's window semantics are identical — the most
// recent capacity accepted samples — and PMFInto is bitwise-equal to
// binning the same window from scratch (the naive test oracle), so
// swapping it in changes no simulation results.
type Histogram struct {
	buf      []float64
	capacity int
	n        int // samples in the window
	next     int // buf index the next sample goes to

	// lo and hi are the window extrema unless stale is set.
	lo, hi float64
	stale  bool
}

// NewHistogram returns a histogram over a window of the given capacity.
// A non-positive capacity yields a histogram that rejects every sample,
// mirroring a zero-length sample window. Storage grows geometrically with
// the samples up to the capacity, so a profiler that never fills its
// window never pays for all of it.
func NewHistogram(capacity int) *Histogram {
	return &Histogram{capacity: max(capacity, 0)}
}

// minHistogramAlloc is the first storage size a histogram allocates.
const minHistogramAlloc = 64

// grow doubles the storage, up to the capacity. It runs only while the
// window is filling: nothing has been evicted yet, so sample p sits at
// buf[p] and growth is a plain copy. Once the storage reaches the
// capacity, the write index wraps and the buffer becomes a ring.
func (h *Histogram) grow() {
	buf := make([]float64, min(max(2*len(h.buf), minHistogramAlloc), h.capacity))
	copy(buf, h.buf)
	h.buf = buf
}

// Len returns the number of samples currently in the window.
func (h *Histogram) Len() int { return h.n }

// Push ingests one sample, evicting the oldest when the window is full.
// Non-finite samples are rejected (reported false) so the window always
// bins cleanly; batch sample ingestion treats them as input errors
// instead, which a per-completion streaming path cannot afford to surface.
func (h *Histogram) Push(v float64) bool {
	if h.capacity == 0 || math.IsNaN(v) || math.IsInf(v, 0) {
		return false
	}
	switch {
	case h.n == h.capacity: // evict the oldest sample, which v overwrites
		if old := h.buf[h.next]; old == h.lo || old == h.hi {
			h.stale = true
		}
	case h.next == len(h.buf):
		h.grow()
	}
	h.buf[h.next] = v
	if h.next++; h.next == h.capacity {
		h.next = 0
	}
	if h.n < h.capacity {
		h.n++
	}
	if h.n == 1 {
		h.lo, h.hi, h.stale = v, v, false
		return true
	}
	if v < h.lo {
		h.lo = v
	}
	if v > h.hi {
		h.hi = v
	}
	return true
}

// extrema returns the window's (lo, hi), rescanning the window
// oldest-first when an eviction made the cache stale.
func (h *Histogram) extrema() (lo, hi float64) {
	if h.stale {
		old, recent := h.window()
		h.lo, h.hi = old[0], old[0]
		for _, part := range [2][]float64{old, recent} {
			for _, s := range part {
				if s < h.lo {
					h.lo = s
				}
				if s > h.hi {
					h.hi = s
				}
			}
		}
		h.stale = false
	}
	return h.lo, h.hi
}

// window returns the window's samples as two runs of the ring, oldest
// first: old, then recent.
func (h *Histogram) window() (old, recent []float64) {
	if h.n < h.capacity {
		return h.buf[:h.n], nil
	}
	return h.buf[h.next:], h.buf[:h.next]
}

// Min returns the smallest sample in the window (0 when empty).
func (h *Histogram) Min() float64 {
	if h.n == 0 {
		return 0
	}
	lo, _ := h.extrema()
	return lo
}

// Max returns the largest sample in the window (0 when empty).
func (h *Histogram) Max() float64 {
	if h.n == 0 {
		return 0
	}
	_, hi := h.extrema()
	return hi
}

// Snapshot appends the window's samples, oldest first, to dst and returns
// the result. Pass nil to get a fresh copy.
func (h *Histogram) Snapshot(dst []float64) []float64 {
	old, recent := h.window()
	return append(append(dst, old...), recent...)
}

// PMFInto bins the window into dst, reusing dst.P's backing array when its
// capacity allows. The result is bitwise-identical to the naive test
// oracle's from-scratch binning of the same window (same [min, max] span,
// same bucket assignment, same degenerate single-bucket case), so the
// streaming profiler can replace the sample-slice path without perturbing
// any downstream decision. With a warm destination it performs zero
// allocations.
func (h *Histogram) PMFInto(dst *PMF, nbuckets int) error {
	n := h.n
	if n == 0 {
		return fmt.Errorf("stats: no samples")
	}
	if nbuckets <= 0 {
		return fmt.Errorf("stats: nbuckets must be positive, got %d", nbuckets)
	}
	lo, hi := h.extrema()
	if hi == lo {
		p := dst.P
		if cap(p) < 1 {
			p = make([]float64, 1)
		} else {
			p = p[:1]
		}
		p[0] = 1
		*dst = PMF{Origin: lo, Width: 1, P: p}
		return nil
	}
	w, err := bucketWidth(lo, hi, nbuckets)
	if err != nil {
		return err
	}
	p := dst.P
	if cap(p) < nbuckets {
		p = make([]float64, nbuckets)
	} else {
		p = p[:nbuckets]
		for i := range p {
			p[i] = 0
		}
	}
	inc := 1 / float64(n)
	old, recent := h.window()
	for _, part := range [2][]float64{old, recent} {
		for _, s := range part {
			k := int((s - lo) / w)
			if k >= nbuckets { // s == hi lands one past the end
				k = nbuckets - 1
			}
			p[k] += inc
		}
	}
	*dst = PMF{Origin: lo, Width: w, P: p}
	return nil
}
