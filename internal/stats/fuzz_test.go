package stats

import (
	"encoding/binary"
	"math"
	"testing"
)

// fuzzValues decodes a byte string into float64 observations, 8 bytes per
// value, skipping NaNs (Observe's ordering comparisons are meaningless on
// NaN) but keeping infinities, negatives, zeros and denormals — the
// histogram must route all of them to a bucket without panicking.
func fuzzValues(data []byte) []float64 {
	vals := make([]float64, 0, len(data)/8)
	for len(data) >= 8 {
		v := math.Float64frombits(binary.LittleEndian.Uint64(data))
		data = data[8:]
		if math.IsNaN(v) {
			continue
		}
		vals = append(vals, v)
	}
	return vals
}

// fuzzPMF decodes a byte string into a unit-mass PMF with up to 130
// buckets: 8 bytes per weight, non-finite values skipped, magnitudes
// folded to [0, 1e12] so the total stays finite, and an all-zero decode
// collapsed to a single-bucket delta (the degenerate profile shape).
func fuzzPMF(data []byte, origin, width float64) PMF {
	var p []float64
	for len(data) >= 8 && len(p) < 130 {
		v := math.Abs(math.Float64frombits(binary.LittleEndian.Uint64(data)))
		data = data[8:]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		if v > 1e12 {
			v = math.Mod(v, 1e12)
		}
		p = append(p, v)
	}
	var tot float64
	for _, v := range p {
		tot += v
	}
	if len(p) == 0 || tot == 0 {
		p = []float64{1}
		tot = 1
	}
	for i := range p {
		p[i] /= tot
	}
	return PMF{Origin: origin, Width: width, P: p}
}

// FuzzPackedConvolution fuzzes the packed real-FFT pipeline against the
// reference convolutions: for arbitrary unit-mass PMF pairs (mismatched
// lengths, degenerate single buckets, extreme weight ratios) both chains
// of one packed pass must reproduce IterConvolutions within the packed
// error bound, with bitwise-identical row geometry. Reading only the
// rows rowMask selects, through the pruned forward transform, must give
// the bits of the full-size forward transform's rows.
func FuzzPackedConvolution(f *testing.F) {
	seed := func(vals ...float64) []byte {
		b := make([]byte, 0, 8*len(vals))
		for _, v := range vals {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	// Degenerate single-bucket chain against a spread chain.
	f.Add(seed(1), seed(0.25, 0.5, 0.25), byte(7), uint32(0b1010))
	// Mismatched lengths with uneven mass.
	f.Add(seed(0.1, 0.9), seed(0.2, 0.3, 0.1, 0.4, 0.05, 0.6, 0.7), byte(15), uint32(1<<14|1<<3))
	// Both degenerate.
	f.Add(seed(3), seed(42), byte(1), uint32(1))
	// Extreme dynamic range within one PMF.
	f.Add(seed(1e-12, 1, 1e12, 1e-300), seed(5, 5, 5, 5, 5), byte(19), uint32(0xffffffff))

	f.Fuzz(func(t *testing.T, a, b []byte, countByte byte, rowMask uint32) {
		c := fuzzPMF(a, 2, 0.5)
		m := fuzzPMF(b, 1, 0.75)
		count := 1 + int(countByte)%20
		wantC, err := naiveChain(c, c, count)
		if err != nil {
			t.Fatal(err)
		}
		wantM, err := naiveChain(m, m, count)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := NewPackedConvolutionPlan(PackedPlanSizeFor(len(c.P), len(m.P), count))
		if err != nil {
			t.Fatal(err)
		}
		gotC := make([]PMF, count)
		gotM := make([]PMF, count)
		if err := selfConvolutions(plan, gotC, gotM, c, m); err != nil {
			t.Fatal(err)
		}
		for chain, pair := range map[string][2][]PMF{"C": {gotC, wantC}, "M": {gotM, wantM}} {
			got, want := pair[0], pair[1]
			for i := range want {
				if got[i].Origin != want[i].Origin || got[i].Width != want[i].Width ||
					len(got[i].P) != len(want[i].P) {
					t.Fatalf("%s row %d geometry mismatch: %+v vs %+v", chain, i, got[i], want[i])
				}
				scale := 0.0
				for _, v := range want[i].P {
					if v > scale {
						scale = v
					}
				}
				if scale == 0 {
					scale = 1
				}
				for k := range want[i].P {
					if diff := math.Abs(got[i].P[k] - want[i].P[k]); diff > 1e-9*scale {
						t.Fatalf("%s row %d entry %d: packed %v reference %v (rel err %v)",
							chain, i, k, got[i].P[k], want[i].P[k], diff/scale)
					}
				}
			}
		}
		var rows []int
		for i := 0; i < count; i++ {
			if rowMask>>i&1 != 0 {
				rows = append(rows, i)
			}
		}
		checkRowsMatchFullForward(t, c, m, count, rows)
	})
}

// FuzzLogHistogramMerge fuzzes the streaming response-latency histogram
// with two arbitrary observation streams and checks the merge contract:
// counts are conserved exactly (total, underflow and overflow mass —
// FracAbove exposes the tail mass), merging is order-independent, and
// quantiles remain monotone in q and within the observed value range.
func FuzzLogHistogramMerge(f *testing.F) {
	seed := func(vals ...float64) []byte {
		b := make([]byte, 0, 8*len(vals))
		for _, v := range vals {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	f.Add(seed(150, 1e3, 2.5e6), seed(99, 1e12, 7e8))
	f.Add(seed(), seed(1))
	f.Add(seed(-4, 0, math.Inf(1)), seed(math.Inf(-1), 1e300))
	f.Add(seed(100, 100, 100), seed(100))

	f.Fuzz(func(t *testing.T, a, b []byte) {
		va, vb := fuzzValues(a), fuzzValues(b)
		ha, hb := NewResponseHistogram(), NewResponseHistogram()
		for _, v := range va {
			ha.Observe(v)
		}
		for _, v := range vb {
			hb.Observe(v)
		}
		if ha.Count() != uint64(len(va)) || hb.Count() != uint64(len(vb)) {
			t.Fatalf("observe miscounted: %d/%d vs %d/%d", ha.Count(), len(va), hb.Count(), len(vb))
		}

		merged := NewResponseHistogram()
		if err := merged.Merge(ha); err != nil {
			t.Fatal(err)
		}
		if err := merged.Merge(hb); err != nil {
			t.Fatal(err)
		}
		if got, want := merged.Count(), uint64(len(va)+len(vb)); got != want {
			t.Fatalf("merge dropped mass: count %d, want %d", got, want)
		}

		// Order independence: b then a lands on the identical histogram.
		rev := NewResponseHistogram()
		if err := rev.Merge(hb); err != nil {
			t.Fatal(err)
		}
		if err := rev.Merge(ha); err != nil {
			t.Fatal(err)
		}
		for _, q := range []float64{0, 0.25, 0.5, 0.95, 1} {
			if merged.Quantile(q) != rev.Quantile(q) {
				t.Fatalf("merge not order-independent at q=%v", q)
			}
		}

		// Tail mass is conserved bucket-exactly: the fraction above any
		// probe scales as the count-weighted mean of the parts.
		for _, probe := range []float64{50, 1e4, 1e9, 2e12} {
			na, nb := float64(ha.Count()), float64(hb.Count())
			if na+nb == 0 {
				break
			}
			want := (ha.FracAbove(probe)*na + hb.FracAbove(probe)*nb) / (na + nb)
			if got := merged.FracAbove(probe); math.Abs(got-want) > 1e-12 {
				t.Fatalf("tail mass not conserved at %g: got %v want %v", probe, got, want)
			}
		}

		if merged.Count() == 0 {
			if q := merged.Quantile(0.5); q != 0 {
				t.Fatalf("empty histogram quantile %v", q)
			}
			return
		}
		// Quantiles are monotone in q...
		qs := []float64{0, 0.01, 0.1, 0.5, 0.9, 0.95, 0.99, 0.999, 1}
		prev := math.Inf(-1)
		for _, q := range qs {
			v := merged.Quantile(q)
			if v < prev {
				t.Fatalf("quantiles not monotone: q=%v gives %v after %v", q, v, prev)
			}
			prev = v
		}
		// ...and stay inside the histogram's representable range.
		if lo, hi := merged.Quantile(0), merged.Quantile(1); lo < 100 || hi > 1e12*1.1 {
			t.Fatalf("quantile outside geometry: [%v, %v]", lo, hi)
		}
	})
}

// fuzzPushes decodes a byte string into a push sequence rich in the
// inputs the streaming histogram's cached extrema must get right: each
// op is one selector byte choosing +0, -0, a small integer tie, NaN,
// ±Inf, or the next 8 bytes as an arbitrary float64 (itself possibly
// non-finite).
func fuzzPushes(data []byte) []float64 {
	var vals []float64
	for len(data) > 0 {
		sel := data[0]
		data = data[1:]
		switch sel % 8 {
		case 0:
			vals = append(vals, 0)
		case 1:
			vals = append(vals, math.Copysign(0, -1))
		case 2, 3:
			vals = append(vals, float64(sel>>3%4)-1)
		case 4:
			vals = append(vals, math.NaN())
		case 5:
			vals = append(vals, math.Inf(int(sel>>3%2)*2-1))
		default:
			if len(data) < 8 {
				return vals
			}
			vals = append(vals, math.Float64frombits(binary.LittleEndian.Uint64(data)))
			data = data[8:]
		}
	}
	return vals
}

// FuzzHistogramMatchesPMF fuzzes the streaming profiler against its
// bitwise oracle: after every push of an arbitrary sequence (ties, ±0,
// rejected NaN/Inf, ring wrap-around at a fuzzed capacity), PMFInto must
// equal NewPMFFromSamples over the trailing window of accepted samples.
func FuzzHistogramMatchesPMF(f *testing.F) {
	f.Add([]byte{0, 1, 6, 0, 0, 0, 0, 0, 0, 20, 64}, byte(3), byte(4))
	f.Add([]byte{1, 0, 2, 10, 1, 0, 4, 5, 13, 2}, byte(2), byte(1))
	f.Add([]byte{2, 10, 18, 26, 2, 10, 18, 26, 0, 1, 0, 1}, byte(5), byte(128))
	f.Add([]byte{}, byte(0), byte(7))

	f.Fuzz(func(t *testing.T, data []byte, capByte, bucketByte byte) {
		capacity := int(capByte % 40)
		nbuckets := 1 + int(bucketByte)%140
		h := NewHistogram(capacity)
		var accepted []float64
		for i, v := range fuzzPushes(data) {
			finite := !math.IsNaN(v) && !math.IsInf(v, 0)
			if got := h.Push(v); got != (finite && capacity > 0) {
				t.Fatalf("push %d (%v): accepted %v", i, v, got)
			}
			if !finite || capacity == 0 {
				continue
			}
			accepted = append(accepted, v)
			window := accepted[max(0, len(accepted)-capacity):]
			if h.Len() != len(window) {
				t.Fatalf("push %d: len %d, want %d", i, h.Len(), len(window))
			}
			if !matchesPMFOracle(h, window, nbuckets) {
				t.Fatalf("push %d: PMFInto differs from NewPMFFromSamples over %v", i, window)
			}
		}
	})
}
