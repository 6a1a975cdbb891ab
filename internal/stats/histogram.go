package stats

import (
	"fmt"
	"math"
)

// Histogram is a streaming profiler over a sliding window of the most
// recent Capacity() samples: a ring buffer plus monotonic min/max deques,
// giving O(1) amortized ingest and O(1) window extrema. PMFInto then bins
// the window into a caller-owned PMF without allocating.
//
// It replaces the append-then-copy sample slices on Rubik's profiling path:
// those cost O(HistoryCap) per completion once the window is full (the
// trim copies the whole window) and a fresh sort/scan plus allocation per
// table rebuild. The histogram's window semantics are identical — the most
// recent Capacity() accepted samples — and PMFInto is bitwise-equal to
// NewPMFFromSamples over the same window, so swapping it in changes no
// simulation results.
type Histogram struct {
	buf      []float64
	capacity int
	pushed   uint64 // total accepted samples; sample p lives at buf[p%capacity]

	// Monotonic deques of absolute sample positions, stored in rings of
	// the same length as buf. minPos fronts the position of the window
	// minimum (values ascending from front to back), maxPos the maximum.
	minPos, maxPos  []uint64
	minHead, minLen int
	maxHead, maxLen int
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
// window is filling: nothing has been evicted yet, so both deques start
// at index 0 and every live position p sits at buf[p], and growth is a
// plain copy. Once the storage reaches the capacity, indexing switches to
// the ring (positions wrap modulo the capacity) without moving anything.
func (h *Histogram) grow() {
	n := min(max(2*len(h.buf), minHistogramAlloc), h.capacity)
	buf := make([]float64, n)
	copy(buf, h.buf[:h.pushed])
	minPos := make([]uint64, n)
	copy(minPos, h.minPos[:h.minLen])
	maxPos := make([]uint64, n)
	copy(maxPos, h.maxPos[:h.maxLen])
	h.buf, h.minPos, h.maxPos = buf, minPos, maxPos
}

// Capacity returns the window capacity.
func (h *Histogram) Capacity() int { return h.capacity }

// Len returns the number of samples currently in the window.
func (h *Histogram) Len() int {
	if h.pushed < uint64(h.capacity) {
		return int(h.pushed)
	}
	return h.capacity
}

// Push ingests one sample, evicting the oldest when the window is full.
// Non-finite samples are rejected (reported false) so the window always
// bins cleanly; NewPMFFromSamples treats them as input errors instead,
// which a per-completion streaming path cannot afford to surface.
func (h *Histogram) Push(v float64) bool {
	c := h.capacity
	if c == 0 || math.IsNaN(v) || math.IsInf(v, 0) {
		return false
	}
	pos := h.pushed
	if pos < uint64(c) {
		if pos == uint64(len(h.buf)) {
			h.grow()
		}
	} else { // evict sample pos-c
		old := pos - uint64(c)
		if h.minLen > 0 && h.minPos[h.minHead] == old {
			h.minHead = (h.minHead + 1) % c
			h.minLen--
		}
		if h.maxLen > 0 && h.maxPos[h.maxHead] == old {
			h.maxHead = (h.maxHead + 1) % c
			h.maxLen--
		}
	}
	h.buf[pos%uint64(c)] = v
	// Keep the deques monotonic: drop entries the new sample dominates.
	// Dropping equals keeps the newer position, which survives longer.
	for h.minLen > 0 {
		back := h.minPos[(h.minHead+h.minLen-1)%c]
		if h.buf[back%uint64(c)] < v {
			break
		}
		h.minLen--
	}
	h.minPos[(h.minHead+h.minLen)%c] = pos
	h.minLen++
	for h.maxLen > 0 {
		back := h.maxPos[(h.maxHead+h.maxLen-1)%c]
		if h.buf[back%uint64(c)] > v {
			break
		}
		h.maxLen--
	}
	h.maxPos[(h.maxHead+h.maxLen)%c] = pos
	h.maxLen++
	h.pushed++
	return true
}

// Min returns the smallest sample in the window (0 when empty).
func (h *Histogram) Min() float64 {
	if h.minLen == 0 {
		return 0
	}
	return h.buf[h.minPos[h.minHead]%uint64(h.capacity)]
}

// Max returns the largest sample in the window (0 when empty).
func (h *Histogram) Max() float64 {
	if h.maxLen == 0 {
		return 0
	}
	return h.buf[h.maxPos[h.maxHead]%uint64(h.capacity)]
}

// Snapshot appends the window's samples, oldest first, to dst and returns
// the result. Pass nil to get a fresh copy.
func (h *Histogram) Snapshot(dst []float64) []float64 {
	c := uint64(h.capacity)
	n := uint64(h.Len())
	for p := h.pushed - n; p < h.pushed; p++ {
		dst = append(dst, h.buf[p%c])
	}
	return dst
}

// PMFInto bins the window into dst, reusing dst.P's backing array when its
// capacity allows. The result is bitwise-identical to NewPMFFromSamples
// over the same window (same [min, max] span, same bucket assignment, same
// degenerate single-bucket case), so the streaming profiler can replace the
// sample-slice path without perturbing any downstream decision. With a
// warm destination it performs zero allocations.
func (h *Histogram) PMFInto(dst *PMF, nbuckets int) error {
	n := h.Len()
	if n == 0 {
		return fmt.Errorf("stats: no samples")
	}
	if nbuckets <= 0 {
		return fmt.Errorf("stats: nbuckets must be positive, got %d", nbuckets)
	}
	lo, hi := h.Min(), h.Max()
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
	w := (hi - lo) / float64(nbuckets)
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
	c := uint64(h.capacity)
	for pos := h.pushed - uint64(n); pos < h.pushed; pos++ {
		s := h.buf[pos%c]
		k := int((s - lo) / w)
		if k >= nbuckets { // s == hi lands one past the end
			k = nbuckets - 1
		}
		p[k] += inc
	}
	*dst = PMF{Origin: lo, Width: w, P: p}
	return nil
}
