package stats

import "math"

// TimedSample is one (timestamp, value) observation in a rolling window.
// Timestamps are int64 nanoseconds, matching the simulator clock.
type TimedSample struct {
	T int64
	V float64
}

// RollingWindow keeps the samples from the trailing Span nanoseconds.
// It backs three measurement paths from the paper:
//   - rolling 200 ms tail-latency traces (Figs. 1b, 10),
//   - the instantaneous-QPS CDF over a rolling 5 ms window (Fig. 2a),
//   - the PI feedback controller's rolling 1 s measured tail (Sec. 4.2).
//
// Samples must be added in non-decreasing timestamp order.
type RollingWindow struct {
	Span int64
	buf  []TimedSample
	head int
	// scratch backs Percentile's selection so the per-tick feedback
	// measurement is allocation-free in steady state.
	scratch []float64
}

// NewRollingWindow returns a window covering the trailing span nanoseconds.
func NewRollingWindow(span int64) *RollingWindow {
	return &RollingWindow{Span: span}
}

// Add appends an observation and evicts samples older than T - Span.
func (w *RollingWindow) Add(t int64, v float64) {
	w.buf = append(w.buf, TimedSample{T: t, V: v})
	w.trim(t)
}

// trim drops samples with timestamp <= t-Span and compacts occasionally.
func (w *RollingWindow) trim(t int64) {
	cut := t - w.Span
	for w.head < len(w.buf) && w.buf[w.head].T <= cut {
		w.head++
	}
	if w.head > 1024 && w.head*2 > len(w.buf) {
		n := copy(w.buf, w.buf[w.head:])
		w.buf = w.buf[:n]
		w.head = 0
	}
}

// AdvanceTo evicts samples that fall out of the window as of time t without
// adding a new one.
func (w *RollingWindow) AdvanceTo(t int64) { w.trim(t) }

// Len returns the number of live samples.
func (w *RollingWindow) Len() int { return len(w.buf) - w.head }

// Values returns a copy of the live sample values in arrival order.
func (w *RollingWindow) Values() []float64 {
	out := make([]float64, 0, w.Len())
	for _, s := range w.buf[w.head:] {
		out = append(out, s.V)
	}
	return out
}

// Percentile returns the q-quantile of the live values (0 if empty). It
// selects the same nearest-rank order statistic the sort-based
// implementation returned, via an O(n) quickselect over a reused scratch
// buffer: controllers measure their feedback tail every tick, and a full
// sort plus copy per tick dominated the measurement cost.
func (w *RollingWindow) Percentile(q float64) float64 {
	n := w.Len()
	if n == 0 {
		return 0
	}
	if cap(w.scratch) < n {
		// Grow geometrically: while the window fills, n rises by one
		// sample at a time, and an exact-size buffer would be replaced
		// on almost every tick.
		w.scratch = make([]float64, 0, max(n, 2*cap(w.scratch)))
	}
	s := w.scratch[:0]
	for _, smp := range w.buf[w.head:] {
		s = append(s, smp.V)
	}
	if q > 1 {
		q = 1
	}
	rank := 0
	if q > 0 {
		rank = int(math.Ceil(q*float64(n))) - 1
		if rank < 0 {
			rank = 0
		}
		if rank >= n {
			rank = n - 1
		}
	}
	return selectKth(s, rank)
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

// Mean returns the mean of the live values (0 if empty).
func (w *RollingWindow) Mean() float64 {
	n := w.Len()
	if n == 0 {
		return 0
	}
	var sum float64
	for _, s := range w.buf[w.head:] {
		sum += s.V
	}
	return sum / float64(n)
}

// CountSince returns how many live samples have timestamps in (t-span, t].
// The Fig. 2a instantaneous-QPS measurement uses this with span = 5 ms.
func (w *RollingWindow) CountSince(t, span int64) int {
	cut := t - span
	n := 0
	for i := len(w.buf) - 1; i >= w.head; i-- {
		if w.buf[i].T <= cut {
			break
		}
		if w.buf[i].T <= t {
			n++
		}
	}
	return n
}
