package stats

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

// appendValues appends the live sample values, oldest first, to dst.
func (w *RollingWindow) appendValues(dst []float64) []float64 {
	mask := len(w.buf) - 1
	for i := 0; i < w.n; i++ {
		dst = append(dst, w.buf[(w.head+i)&mask].V)
	}
	return dst
}

// Values returns a copy of the live sample values in arrival order.
func (w *RollingWindow) Values() []float64 {
	return w.appendValues(make([]float64, 0, w.n))
}

// Percentile returns the q-quantile of the live values (0 if empty): the
// nearest-rank order statistic of PercentileInPlace, selected over a
// reused scratch copy. Controllers measure their feedback tail every tick,
// and a full sort plus copy per tick dominated the measurement cost.
func (w *RollingWindow) Percentile(q float64) float64 {
	n := w.n
	if n == 0 {
		return 0
	}
	if cap(w.scratch) < n {
		// Grow geometrically: while the window fills, n rises by one
		// sample at a time, and an exact-size buffer would be replaced
		// on almost every tick.
		w.scratch = make([]float64, 0, max(n, 2*cap(w.scratch)))
	}
	w.scratch = w.appendValues(w.scratch[:0])
	return PercentileInPlace(w.scratch, q)
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
