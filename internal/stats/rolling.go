package stats

import "math"

// TimedSample is one (timestamp, value) observation in a rolling window.
// Timestamps are int64 nanoseconds, matching the simulator clock.
type TimedSample struct {
	T int64
	V float64
}

// RollingWindow keeps the samples from the trailing Span nanoseconds.
// It backs the measured tail of the feedback controllers: Rubik's PI
// loop over a rolling 1 s window (Sec. 4.2) and Pegasus's 4 s window.
//
// The samples live in a power-of-two ring that evicts expired samples
// before it grows, so a window at steady load allocates nothing per
// sample.
//
// Samples must be added in non-decreasing timestamp order.
type RollingWindow struct {
	Span int64
	// buf is the ring (len 0 or a power of two); the live samples are
	// buf[head], buf[head+1], ... (indices masked), n of them, oldest
	// first.
	buf     []TimedSample
	head, n int
	// scratch backs Percentile's selection so the per-tick feedback
	// measurement is allocation-free in steady state.
	scratch []float64
	// pivot is Percentile's previous result, the first pivot of the next
	// selection; hasPivot is false before the first result and after a
	// NaN one.
	pivot    float64
	hasPivot bool
}

// NewRollingWindow returns a window covering the trailing span nanoseconds.
func NewRollingWindow(span int64) *RollingWindow {
	return &RollingWindow{Span: span}
}

// minRollingAlloc is the first ring size a window allocates.
const minRollingAlloc = 64

// Add evicts samples older than t - Span and appends the observation,
// unless a non-positive Span expires it at once.
func (w *RollingWindow) Add(t int64, v float64) {
	w.trim(t)
	if t <= t-w.Span {
		return
	}
	if w.n == len(w.buf) {
		w.grow()
	}
	w.buf[(w.head+w.n)&(len(w.buf)-1)] = TimedSample{T: t, V: v}
	w.n++
}

// grow doubles the full ring, unrolling it so the oldest sample lands at
// index 0.
func (w *RollingWindow) grow() {
	buf := make([]TimedSample, max(2*len(w.buf), minRollingAlloc))
	k := copy(buf, w.buf[w.head:])
	copy(buf[k:], w.buf[:w.head])
	w.buf, w.head = buf, 0
}

// trim drops samples with timestamp <= t-Span.
func (w *RollingWindow) trim(t int64) {
	cut := t - w.Span
	mask := len(w.buf) - 1
	for w.n > 0 && w.buf[w.head].T <= cut {
		w.head = (w.head + 1) & mask
		w.n--
	}
}

// AdvanceTo evicts samples that fall out of the window as of time t without
// adding a new one.
func (w *RollingWindow) AdvanceTo(t int64) { w.trim(t) }

// Len returns the number of live samples.
func (w *RollingWindow) Len() int { return w.n }

// runs returns the live samples as the ring's two contiguous runs,
// oldest first.
func (w *RollingWindow) runs() [2][]TimedSample {
	end := w.head + w.n
	if end <= len(w.buf) {
		return [2][]TimedSample{w.buf[w.head:end], nil}
	}
	return [2][]TimedSample{w.buf[w.head:], w.buf[:end-len(w.buf)]}
}

// appendValues appends the live sample values, oldest first, to dst.
func (w *RollingWindow) appendValues(dst []float64) []float64 {
	for _, run := range w.runs() {
		for _, s := range run {
			dst = append(dst, s.V)
		}
	}
	return dst
}

// Values returns a copy of the live sample values in arrival order.
func (w *RollingWindow) Values() []float64 {
	return w.appendValues(make([]float64, 0, w.n))
}

// maxPivotGap is how far below the pivot's block a rank may fall for
// Percentile to find it with one top-k pass; deeper ranks fall back to a
// full selection.
const maxPivotGap = 16

// Percentile returns the q-quantile of the live values (0 if empty): the
// nearest-rank order statistic of PercentileInPlace.
//
// Controllers measure their feedback tail every tick, while only a few
// samples enter or leave the window between ticks, so the tail rarely
// moves far. Percentile therefore pivots on its previous result: one
// counting pass over the ring, with no copy, places the pivot's block of
// equal values among the NaNs, the smaller and the larger values. A rank
// inside the block returns the pivot; a rank above it selects among the
// copied larger values only; a rank at most maxPivotGap below it is
// found by one top-k pass. Otherwise, and on the first call, it selects
// over a copy of the whole window. Every route returns the same order
// statistic, up to the sign of a zero (see PercentileInPlace).
func (w *RollingWindow) Percentile(q float64) float64 {
	n := w.n
	if n == 0 {
		return 0
	}
	rank := NearestRank(n, q)
	if rank < 0 {
		return math.NaN()
	}
	v, ok := w.pivotSelect(rank)
	if !ok {
		w.scratch = w.appendValues(w.reserve(n))
		v = PercentileInPlace(w.scratch, q)
	}
	w.pivot, w.hasPivot = v, v == v
	return v
}

// reserve returns w.scratch emptied with capacity for at least n values.
// It grows geometrically: while the window fills, n rises by one sample
// at a time, and an exact-size buffer would be replaced on almost every
// tick.
func (w *RollingWindow) reserve(n int) []float64 {
	if cap(w.scratch) < n {
		w.scratch = make([]float64, 0, max(n, 2*cap(w.scratch)))
	}
	return w.scratch[:0]
}

// pivotSelect returns the rank-th smallest live value (NaNs first) by
// pivoting on the previous result, or false when there is none or the
// rank lies more than maxPivotGap below the pivot's block.
func (w *RollingWindow) pivotSelect(rank int) (float64, bool) {
	if !w.hasPivot {
		return 0, false
	}
	p := w.pivot
	var nans, below, at int
	for _, run := range w.runs() {
		for _, s := range run {
			switch v := s.V; {
			case v < p:
				below++
			case v == p:
				at++
			case v != v:
				nans++
			}
		}
	}
	lo := nans + below // rank of the pivot's block
	switch {
	case rank < nans:
		return math.NaN(), true
	case rank >= lo+at:
		above := w.reserve(w.n - lo - at)
		for _, run := range w.runs() {
			for _, s := range run {
				if s.V > p {
					above = append(above, s.V)
				}
			}
		}
		w.scratch = above
		return selectKth(above, rank-lo-at), true
	case rank >= lo:
		return p, true
	case lo-rank > maxPivotGap:
		return 0, false
	}
	// The answer is the k-th largest value below the pivot; keep the k
	// largest seen, in descending order. NaNs fail every comparison, so
	// they never enter.
	k := lo - rank
	var top [maxPivotGap]float64
	filled := 0
	for _, run := range w.runs() {
		for _, s := range run {
			v := s.V
			if !(v < p) {
				continue
			}
			i := filled
			if filled < k {
				filled++
			} else if v > top[k-1] {
				i = k - 1
			} else {
				continue
			}
			for ; i > 0 && top[i-1] < v; i-- {
				top[i] = top[i-1]
			}
			top[i] = v
		}
	}
	return top[k-1], true
}

// selectKth returns the k-th smallest element of s (0-based), partially
// reordering s in place. The returned value is the order statistic itself,
// so it is identical to sorting and indexing regardless of pivot choices.
func selectKth(s []float64, k int) float64 {
	lo, hi := 0, len(s)-1
	for lo < hi {
		// Median-of-three pivot: order s[lo], s[mid], s[hi].
		mid := int(uint(lo+hi) >> 1)
		if s[mid] < s[lo] {
			s[mid], s[lo] = s[lo], s[mid]
		}
		if s[hi] < s[lo] {
			s[hi], s[lo] = s[lo], s[hi]
		}
		if s[hi] < s[mid] {
			s[hi], s[mid] = s[mid], s[hi]
		}
		p := s[mid]
		i, j := lo, hi
		for i <= j {
			for s[i] < p {
				i++
			}
			for s[j] > p {
				j--
			}
			if i <= j {
				s[i], s[j] = s[j], s[i]
				i++
				j--
			}
		}
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return s[k]
		}
	}
	return s[k]
}
