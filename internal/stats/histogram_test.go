package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// matchesPMFOracle reports whether h.PMFInto(nbuckets) is bitwise-equal
// to NewPMFFromSamples over window, the trailing samples h holds, or
// fails where it fails.
func matchesPMFOracle(h *Histogram, window []float64, nbuckets int) bool {
	want, wantErr := naivePMF(window, nbuckets)
	var dst PMF
	if err := h.PMFInto(&dst, nbuckets); (err != nil) != (wantErr != nil) {
		return false
	}
	return wantErr != nil || samePMF(dst, want)
}

// TestHistogramMatchesNewPMFFromSamples is the streaming profiler's core
// equivalence property: over any sequence of pushes, PMFInto must be
// bitwise-identical to NewPMFFromSamples on the trailing window, including
// window wrap-around and the degenerate all-equal case.
func TestHistogramMatchesNewPMFFromSamples(t *testing.T) {
	negZero := math.Copysign(0, -1)
	// Signed-zero ties: the oracle keeps the oldest of tied extrema, so
	// {+0, -0, 5} has Origin +0 and {-0, +0, 5} has Origin -0, both
	// before and after a wrap evicts the older zero.
	for _, tc := range []struct {
		capacity int
		pushes   []float64
	}{
		{3, []float64{0, negZero, 5}},
		{3, []float64{negZero, 0, 5}},
		{3, []float64{-5, 0, negZero, 0}},
		{2, []float64{0, negZero, negZero}},
		{3, []float64{5, negZero, 0, 5, -1}},
	} {
		h := NewHistogram(tc.capacity)
		for i, v := range tc.pushes {
			h.Push(v)
			window := tc.pushes[max(0, i+1-tc.capacity) : i+1]
			for _, nb := range []int{1, 4} {
				if !matchesPMFOracle(h, window, nb) {
					t.Fatalf("pushes %v, window %v, %d buckets: PMFInto differs from NewPMFFromSamples",
						tc.pushes[:i+1], window, nb)
				}
			}
		}
	}

	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		capacity := 1 + r.Intn(200)
		nbuckets := 1 + r.Intn(140)
		h := NewHistogram(capacity)
		var all []float64
		n := 1 + r.Intn(600)
		for i := 0; i < n; i++ {
			var v float64
			switch r.Intn(4) {
			case 0:
				v = float64(r.Intn(4)) // heavy ties exercise the cached extrema
			default:
				v = r.NormFloat64() * 1e5
			}
			if !h.Push(v) {
				return false
			}
			all = append(all, v)
			if r.Intn(8) != 0 { // check at random points, not every push
				continue
			}
			window := all
			if len(window) > capacity {
				window = window[len(window)-capacity:]
			}
			if !matchesPMFOracle(h, window, nbuckets) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramWindowExtrema(t *testing.T) {
	// Min/Max must track the sliding window exactly (naive recompute).
	r := rand.New(rand.NewSource(3))
	const capacity = 37
	h := NewHistogram(capacity)
	var all []float64
	for i := 0; i < 1000; i++ {
		v := math.Floor(r.NormFloat64() * 10)
		h.Push(v)
		all = append(all, v)
		window := all
		if len(window) > capacity {
			window = window[len(window)-capacity:]
		}
		lo, hi := window[0], window[0]
		for _, s := range window {
			lo = math.Min(lo, s)
			hi = math.Max(hi, s)
		}
		if h.Min() != lo || h.Max() != hi {
			t.Fatalf("push %d: extrema (%v, %v), want (%v, %v)", i, h.Min(), h.Max(), lo, hi)
		}
		if h.Len() != len(window) {
			t.Fatalf("push %d: len %d, want %d", i, h.Len(), len(window))
		}
	}
}

func TestHistogramSnapshotOrder(t *testing.T) {
	h := NewHistogram(4)
	for i := 1; i <= 6; i++ {
		h.Push(float64(i))
	}
	got := h.Snapshot(nil)
	want := []float64{3, 4, 5, 6}
	if len(got) != len(want) {
		t.Fatalf("snapshot %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("snapshot %v, want %v", got, want)
		}
	}
}

func TestHistogramRejects(t *testing.T) {
	h := NewHistogram(8)
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if h.Push(v) {
			t.Fatalf("non-finite sample %v accepted", v)
		}
	}
	if h.Len() != 0 {
		t.Fatalf("rejected samples counted: len %d", h.Len())
	}
	var dst PMF
	if err := h.PMFInto(&dst, 8); err == nil {
		t.Fatal("empty histogram must refuse to bin")
	}
	if err := func() error { h.Push(1); return h.PMFInto(&dst, 0) }(); err == nil {
		t.Fatal("nbuckets=0 must be rejected")
	}
	zero := NewHistogram(0)
	if zero.Push(1) {
		t.Fatal("zero-capacity histogram accepted a sample")
	}
}

// TestHistogramPushesCountsAcceptedOnly pins the mutation count a
// consumer keys reuse on: every accepted Push raises it by one, through
// the window's growth, its first eviction and the ring's wrap, and
// neither a rejected sample (NaN, +Inf, -Inf) nor a zero-capacity window
// ever moves it; binning and reading the window leave it alone too.
func TestHistogramPushesCountsAcceptedOnly(t *testing.T) {
	h := NewHistogram(100)
	if h.Pushes() != 0 {
		t.Fatalf("new histogram Pushes = %d", h.Pushes())
	}
	var dst PMF
	want := uint64(0)
	for i := 0; i < 350; i++ {
		if !h.Push(float64(i % 37)) {
			t.Fatalf("push %d rejected", i)
		}
		want++
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			if h.Push(v) {
				t.Fatalf("non-finite sample %v accepted", v)
			}
		}
		if i%50 == 0 {
			if err := h.PMFInto(&dst, 16); err != nil {
				t.Fatal(err)
			}
			h.Min()
			h.Max()
			h.Snapshot(nil)
		}
		if h.Pushes() != want {
			t.Fatalf("after %d accepted pushes Pushes = %d", want, h.Pushes())
		}
	}
	if h.Len() != 100 {
		t.Fatalf("window holds %d samples, want 100", h.Len())
	}
	zero := NewHistogram(0)
	for _, v := range []float64{1, 0, math.NaN()} {
		zero.Push(v)
	}
	if zero.Pushes() != 0 {
		t.Fatalf("zero-capacity histogram Pushes = %d", zero.Pushes())
	}
}

func TestHistogramDegenerateWindow(t *testing.T) {
	h := NewHistogram(16)
	for i := 0; i < 5; i++ {
		h.Push(42)
	}
	var dst PMF
	if err := h.PMFInto(&dst, 128); err != nil {
		t.Fatal(err)
	}
	if dst.Origin != 42 || dst.Width != 1 || len(dst.P) != 1 || dst.P[0] != 1 {
		t.Fatalf("degenerate PMF %+v", dst)
	}
}

func TestHistogramPMFIntoAllocationFree(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	h := NewHistogram(512)
	for i := 0; i < 2000; i++ {
		h.Push(r.Float64() * 1e6)
	}
	var dst PMF
	if err := h.PMFInto(&dst, 128); err != nil { // warm the destination
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if err := h.PMFInto(&dst, 128); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm PMFInto allocates %v/op, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(10, func() { h.Push(1234.5) })
	if allocs != 0 {
		t.Fatalf("Push allocates %v/op, want 0", allocs)
	}
}

// preallocatedHistogram returns a histogram whose storage already spans
// its capacity, so it never grows and indexes its ring from the first
// sample on: the layout NewHistogram had before storage grew on demand.
func preallocatedHistogram(capacity int) *Histogram {
	return &Histogram{
		capacity: capacity,
		buf:      make([]float64, capacity),
	}
}

// TestHistogramGrowthMatchesPreallocated pushes the same stream into a
// growing and a preallocated histogram across every storage doubling and
// past the first ring wrap, and requires Len, Min, Max and PMFInto to
// agree bit for bit after every push near a boundary (and at random
// points in between).
func TestHistogramGrowthMatchesPreallocated(t *testing.T) {
	for _, capacity := range []int{1, 2, 63, 64, 65, 127, 128, 129, 200, 1000, 8192} {
		r := rand.New(rand.NewSource(int64(capacity)))
		grown, pre := NewHistogram(capacity), preallocatedHistogram(capacity)
		var dg, dp PMF
		prevAlloc := 0
		for i := 0; i < 2*capacity+3*minHistogramAlloc; i++ {
			v := r.NormFloat64() * 1e5
			if r.Intn(4) == 0 {
				v = float64(r.Intn(4)) // ties exercise the cached extrema
			}
			if grown.Push(v) != pre.Push(v) {
				t.Fatalf("cap %d push %d: accept mismatch", capacity, i)
			}
			boundary := len(grown.buf) != prevAlloc ||
				i+2 >= capacity && i <= capacity+1 // first wrap
			prevAlloc = len(grown.buf)
			if !boundary && r.Intn(50) != 0 {
				continue
			}
			if grown.Len() != pre.Len() || !sameBits(grown.Min(), pre.Min()) ||
				!sameBits(grown.Max(), pre.Max()) {
				t.Fatalf("cap %d push %d: len/min/max %d %v %v, preallocated %d %v %v",
					capacity, i, grown.Len(), grown.Min(), grown.Max(), pre.Len(), pre.Min(), pre.Max())
			}
			nb := 1 + i%130
			if err := grown.PMFInto(&dg, nb); err != nil {
				t.Fatal(err)
			}
			if err := pre.PMFInto(&dp, nb); err != nil {
				t.Fatal(err)
			}
			if !sameBits(dg.Origin, dp.Origin) || !sameBits(dg.Width, dp.Width) || len(dg.P) != len(dp.P) {
				t.Fatalf("cap %d push %d: PMF shape differs", capacity, i)
			}
			for k := range dp.P {
				if !sameBits(dg.P[k], dp.P[k]) {
					t.Fatalf("cap %d push %d: bucket %d %v, preallocated %v", capacity, i, k, dg.P[k], dp.P[k])
				}
			}
		}
		if len(grown.buf) != capacity {
			t.Fatalf("cap %d: storage %d after wrapping, want the capacity", capacity, len(grown.buf))
		}
	}
}

// TestHistogramStorageGrowsOnDemand pins the memory saving: a profiler
// that sees a few hundred samples holds storage for about that many, not
// for its whole window.
func TestHistogramStorageGrowsOnDemand(t *testing.T) {
	h := NewHistogram(8192)
	if cap(h.buf) != 0 {
		t.Fatal("a fresh histogram preallocates storage")
	}
	for i := 0; i < 500; i++ {
		h.Push(float64(i))
	}
	if len(h.buf) != 512 {
		t.Fatalf("storage %d after 500 samples, want 512", len(h.buf))
	}
}

func TestConditionAtLeastIntoMatches(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := randomPMF(r, 1+r.Intn(128), float64(r.Intn(20)), 0.5+r.Float64())
		buf := make([]float64, len(d.P))
		for trial := 0; trial < 8; trial++ {
			omega := d.Origin + (r.Float64()*1.4-0.2)*float64(len(d.P))*d.Width
			want := naiveCondition(d, omega)
			got := d.ConditionAtLeastInto(buf, omega)
			if !sameBits(got.Origin, want.Origin) || !sameBits(got.Width, want.Width) ||
				len(got.P) != len(want.P) {
				return false
			}
			for k := range want.P {
				if !sameBits(got.P[k], want.P[k]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
