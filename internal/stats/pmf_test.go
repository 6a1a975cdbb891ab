package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func approxEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestNewPMFFromSamplesErrors(t *testing.T) {
	if _, err := naivePMF(nil, 128); err == nil {
		t.Fatal("expected error for empty samples")
	}
	if _, err := naivePMF([]float64{1}, 0); err == nil {
		t.Fatal("expected error for zero buckets")
	}
	if _, err := naivePMF([]float64{math.NaN()}, 8); err == nil {
		t.Fatal("expected error for NaN sample")
	}
	if _, err := naivePMF([]float64{math.Inf(1)}, 8); err == nil {
		t.Fatal("expected error for Inf sample")
	}
	// Spans whose bucket width underflows to 0 or overflows to +Inf
	// leave no bucket index to compute; binning them must fail, not
	// index out of range.
	for _, samples := range [][]float64{
		{math.SmallestNonzeroFloat64, 0},
		{-math.MaxFloat64, math.MaxFloat64},
	} {
		if _, err := naivePMF(samples, 43); err == nil {
			t.Fatalf("expected error for span %v", samples)
		}
		h := NewHistogram(4)
		for _, v := range samples {
			h.Push(v)
		}
		var dst PMF
		if err := h.PMFInto(&dst, 43); err == nil {
			t.Fatalf("Histogram.PMFInto: expected error for span %v", samples)
		}
	}
}

func TestNewPMFFromSamplesDegenerate(t *testing.T) {
	d, err := naivePMF([]float64{5, 5, 5}, 128)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.P) != 1 || d.P[0] != 1 {
		t.Fatalf("degenerate PMF not single bucket: %+v", d)
	}
	if d.Origin != 5 {
		t.Fatalf("degenerate origin = %v, want 5", d.Origin)
	}
	if q := d.Quantile(0.95); q < 5 {
		t.Fatalf("degenerate quantile %v < 5", q)
	}
}

func TestPMFMassIsOne(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	samples := make([]float64, 10000)
	for i := range samples {
		samples[i] = r.NormFloat64()*3 + 10
	}
	d, err := naivePMF(samples, 128)
	if err != nil {
		t.Fatal(err)
	}
	if !approxEqual(mass(d), 1, 1e-9) {
		t.Fatalf("mass = %v, want 1", mass(d))
	}
}

func TestPMFMeanVarianceMatchSamples(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	samples := make([]float64, 50000)
	for i := range samples {
		samples[i] = math.Exp(r.NormFloat64()*0.4 + 1)
	}
	mean, variance := meanVar(samples)
	d, err := naivePMF(samples, 256)
	if err != nil {
		t.Fatal(err)
	}
	if !approxEqual(d.Mean(), mean, 0.05*mean) {
		t.Fatalf("PMF mean %v, sample mean %v", d.Mean(), mean)
	}
	if !approxEqual(d.Variance(), variance, 0.1*variance+0.01) {
		t.Fatalf("PMF var %v, sample var %v", d.Variance(), variance)
	}
}

func TestQuantileIsConservative(t *testing.T) {
	// Quantile must return a value whose CDF is at least q.
	r := rand.New(rand.NewSource(3))
	samples := make([]float64, 5000)
	for i := range samples {
		samples[i] = r.ExpFloat64() * 100
	}
	d, err := naivePMF(samples, 128)
	if err != nil {
		t.Fatal(err)
	}
	// cdf is P[X <= x], with mass uniform within each bucket.
	cdf := func(x float64) float64 {
		if x < d.Origin {
			return 0
		}
		k := int((x - d.Origin) / d.Width)
		if k >= len(d.P) {
			return mass(d)
		}
		var cum float64
		for i := 0; i < k; i++ {
			cum += d.P[i]
		}
		frac := (x - (d.Origin + float64(k)*d.Width)) / d.Width
		return cum + d.P[k]*frac
	}
	for _, q := range []float64{0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0} {
		x := d.Quantile(q)
		if cdf := cdf(x); cdf+1e-9 < q {
			t.Errorf("CDF(Quantile(%v)) = %v < q", q, cdf)
		}
	}
}

func TestQuantileMonotonic(t *testing.T) {
	// Property: for any sample set, quantiles are monotone in q.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 10 + r.Intn(500)
		samples := make([]float64, n)
		for i := range samples {
			samples[i] = r.Float64() * 1000
		}
		d, err := naivePMF(samples, 64)
		if err != nil {
			return false
		}
		prev := math.Inf(-1)
		for q := 0.05; q <= 1.0; q += 0.05 {
			x := d.Quantile(q)
			if x < prev-1e-9 {
				return false
			}
			prev = x
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestConditionAtLeastZeroIsIdentityShift(t *testing.T) {
	d := PMF{Origin: 10, Width: 2, P: []float64{0.25, 0.25, 0.5}}
	c := naiveCondition(d, 0)
	if c.Origin != 10 {
		t.Fatalf("origin = %v, want 10", c.Origin)
	}
	for i := range d.P {
		if c.P[i] != d.P[i] {
			t.Fatalf("P[%d] changed: %v vs %v", i, c.P[i], d.P[i])
		}
	}
	// Conditioning below the support shifts values exactly.
	c = naiveCondition(d, 4)
	if c.Origin != 6 {
		t.Fatalf("origin = %v, want 6", c.Origin)
	}
}

func TestConditionAtLeastRenormalizes(t *testing.T) {
	d := PMF{Origin: 0, Width: 1, P: []float64{0.5, 0.3, 0.2}}
	c := naiveCondition(d, 1.2) // conditions at boundary 1.0
	if !approxEqual(mass(c), 1, 1e-12) {
		t.Fatalf("mass = %v, want 1", mass(c))
	}
	if len(c.P) != 2 {
		t.Fatalf("len = %d, want 2", len(c.P))
	}
	if !approxEqual(c.P[0], 0.6, 1e-12) || !approxEqual(c.P[1], 0.4, 1e-12) {
		t.Fatalf("P = %v, want [0.6 0.4]", c.P)
	}
	if c.Origin != 0 {
		t.Fatalf("origin = %v, want 0", c.Origin)
	}
}

func TestConditionAtLeastExhausted(t *testing.T) {
	d := PMF{Origin: 0, Width: 1, P: []float64{0.5, 0.5}}
	c := naiveCondition(d, 10)
	if !approxEqual(mass(c), 1, 1e-12) {
		t.Fatalf("exhausted conditioning must still return mass 1, got %v", mass(c))
	}
}

func TestConditionAtLeastIsConservativeAtBoundaries(t *testing.T) {
	// Property: when conditioning exactly at a bucket boundary b (which is
	// what Rubik's octile rows do), the conditioned tail quantile
	// upper-bounds the empirical remaining-work quantile of the samples at
	// or above b. Off-boundary conditioning is only approximate — Rubik
	// quantizes omega to a row boundary before consulting the table.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		samples := make([]float64, 2000)
		for i := range samples {
			samples[i] = 100 + r.ExpFloat64()*50
		}
		d, err := naivePMF(samples, 128)
		if err != nil {
			return false
		}
		k := r.Intn(len(d.P) / 2)
		b := d.Origin + float64(k)*d.Width
		cond := naiveCondition(d, b)
		var remaining []float64
		for _, s := range samples {
			if s >= b {
				remaining = append(remaining, s-b)
			}
		}
		if len(remaining) < 20 {
			return true // too few survivors to compare
		}
		for _, q := range []float64{0.5, 0.9, 0.95, 0.99} {
			if cond.Quantile(q) < Percentile(remaining, q)-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestConvolveMatchesMoments(t *testing.T) {
	// Property: mean(a*b) = mean(a)+mean(b), var(a*b) = var(a)+var(b).
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		mk := func() PMF {
			n := 2 + r.Intn(40)
			p := make([]float64, n)
			var tot float64
			for i := range p {
				p[i] = r.Float64()
				tot += p[i]
			}
			for i := range p {
				p[i] /= tot
			}
			return PMF{Origin: r.Float64() * 10, Width: 0.5, P: p}
		}
		a, b := mk(), mk()
		c, err := naiveConvolve(a, b)
		if err != nil {
			return false
		}
		meanOK := approxEqual(c.Mean(), a.Mean()+b.Mean(), 1e-6)
		varOK := approxEqual(c.Variance(), a.Variance()+b.Variance(), 1e-6)
		massOK := approxEqual(mass(c), 1, 1e-9)
		return meanOK && varOK && massOK
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestConvolveWidthMismatch(t *testing.T) {
	a := PMF{Origin: 0, Width: 1, P: []float64{1}}
	b := PMF{Origin: 0, Width: 2, P: []float64{1}}
	if _, err := naiveConvolve(a, b); err == nil {
		t.Fatal("expected width mismatch error")
	}
}

func TestPercentileNearestRank(t *testing.T) {
	s := []float64{5, 1, 4, 2, 3}
	cases := []struct {
		q    float64
		want float64
	}{
		{0.2, 1}, {0.4, 2}, {0.5, 3}, {0.95, 5}, {1.0, 5}, {0, 1},
	}
	for _, c := range cases {
		if got := Percentile(s, c.q); got != c.want {
			t.Errorf("Percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := Percentile(nil, 0.5); got != 0 {
		t.Errorf("empty percentile = %v, want 0", got)
	}
}

// TestQuantileFromCumMatchesQuantileBitwise pins the CDF-once rebuild
// optimization: for nonnegative PMFs (the profiler only produces those),
// one CumSumInto pass plus QuantileFromCum must reproduce the per-call
// Quantile scan bit for bit at every q, including the q<=0 / q>1 clamps
// and the octile row-bound grid the table rebuild actually queries.
func TestQuantileFromCumMatchesQuantileBitwise(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(200)
		p := make([]float64, n)
		for i := range p {
			// Occasional zero runs exercise ties in the running mass.
			if r.Intn(4) == 0 {
				p[i] = 0
			} else {
				p[i] = r.Float64() * math.Pow(10, float64(r.Intn(6)-3))
			}
		}
		d := PMF{Origin: float64(r.Intn(10)), Width: 0.25 + r.Float64(), P: p}
		cum := d.CumSumInto(nil)
		qs := []float64{-0.5, 0, 1e-9, 0.25, 0.5, 0.9, 0.95, 0.999, 1, 1.5}
		for rows := 1; rows <= 8; rows++ {
			for k := 0; k < rows; k++ {
				qs = append(qs, float64(k)/float64(rows))
			}
		}
		for i := 0; i < 32; i++ {
			qs = append(qs, r.Float64())
		}
		for _, q := range qs {
			want := d.Quantile(q)
			got := d.QuantileFromCum(cum, q)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("q=%v: QuantileFromCum %v, Quantile %v (n=%d)", q, got, want, n)
			}
		}
		// Reuse: a second pass into the same buffer changes nothing.
		cum2 := d.CumSumInto(cum)
		for i := range cum {
			if math.Float64bits(cum2[i]) != math.Float64bits(cum[i]) {
				t.Fatalf("CumSumInto reuse changed entry %d", i)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestQuantileFromCumEmpty(t *testing.T) {
	var d PMF
	if got := d.QuantileFromCum(nil, 0.5); got != 0 {
		t.Fatalf("empty PMF quantile %v, want 0", got)
	}
	if cum := d.CumSumInto(nil); len(cum) != 0 {
		t.Fatalf("empty PMF cum length %d", len(cum))
	}
}

// TestVarianceBitsPinned pins Variance's bits on a few PMFs (a point
// mass, a symmetric and a gapped one, and a 128-bucket random one at
// profile scale), recorded before Variance and MeanVariance came to share
// one second-moment loop, and requires MeanVariance to return Mean and
// Variance bit for bit.
func TestVarianceBitsPinned(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	random := make([]float64, 128)
	var sum float64
	for i := range random {
		random[i] = r.ExpFloat64()
		sum += random[i]
	}
	for i := range random {
		random[i] /= sum
	}
	cases := []struct {
		d    PMF
		want uint64
	}{
		{PMF{Origin: 0, Width: 1, P: []float64{1}}, 0},
		{PMF{Origin: 0.5, Width: 0.25, P: []float64{0.25, 0.5, 0.25}}, 0x3fa0000000000000},
		{PMF{Origin: 1e5, Width: 3.7e3, P: []float64{0.1, 0, 0.3, 0.6}}, 0x4165ef0a00000000},
		{PMF{Origin: 125e3, Width: 1953.125, P: random}, 0x41f5ae668124a114},
	}
	for i, c := range cases {
		if got := math.Float64bits(c.d.Variance()); got != c.want {
			t.Errorf("case %d: Variance bits %#016x, want %#016x", i, got, c.want)
		}
		mean, variance := c.d.MeanVariance()
		if math.Float64bits(mean) != math.Float64bits(c.d.Mean()) ||
			math.Float64bits(variance) != math.Float64bits(c.d.Variance()) {
			t.Errorf("case %d: MeanVariance (%v, %v), Mean/Variance (%v, %v)",
				i, mean, variance, c.d.Mean(), c.d.Variance())
		}
	}
}
