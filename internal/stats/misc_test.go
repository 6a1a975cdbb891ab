package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNormalQuantileKnownValues(t *testing.T) {
	cases := []struct {
		q, want float64
	}{
		{0.5, 0},
		{0.8413447, 1.0},
		{0.95, 1.6448536},
		{0.975, 1.9599640},
		{0.99, 2.3263479},
	}
	for _, c := range cases {
		if got := NormalQuantile(c.q); math.Abs(got-c.want) > 1e-4 {
			t.Errorf("NormalQuantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if !math.IsInf(NormalQuantile(0), -1) || !math.IsInf(NormalQuantile(1), 1) {
		t.Error("extreme quantiles must be infinite")
	}
}

func TestNormalQuantileSymmetry(t *testing.T) {
	f := func(raw float64) bool {
		q := math.Mod(math.Abs(raw), 0.49) // (0, 0.49)
		if q == 0 {
			return true
		}
		return math.Abs(NormalQuantile(0.5+q)+NormalQuantile(0.5-q)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestGaussianTail(t *testing.T) {
	if got := GaussianTail(10, 4, 0.95); math.Abs(got-(10+1.6448536*2)) > 1e-4 {
		t.Fatalf("GaussianTail = %v", got)
	}
	if got := GaussianTail(-100, 1, 0.5); got != 0 {
		t.Fatalf("negative tail must floor at 0, got %v", got)
	}
	if got := GaussianTail(5, -1, 0.9); got != 5 {
		t.Fatalf("negative variance treated as 0, got %v", got)
	}
}

func TestPearsonKnownValues(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{2, 4, 6, 8, 10}
	if r, err := Pearson(x, y); err != nil || math.Abs(r-1) > 1e-12 {
		t.Fatalf("perfect correlation: r=%v err=%v", r, err)
	}
	yneg := []float64{10, 8, 6, 4, 2}
	if r, _ := Pearson(x, yneg); math.Abs(r+1) > 1e-12 {
		t.Fatalf("perfect anticorrelation: r=%v", r)
	}
	constant := []float64{3, 3, 3, 3, 3}
	if r, err := Pearson(x, constant); err != nil || r != 0 {
		t.Fatalf("constant series: r=%v err=%v", r, err)
	}
	if _, err := Pearson(x, []float64{1}); err == nil {
		t.Fatal("expected length mismatch error")
	}
	if _, err := Pearson([]float64{1}, []float64{1}); err == nil {
		t.Fatal("expected too-few-points error")
	}
}

func TestPearsonIndependentNearZero(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	n := 20000
	x := make([]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		x[i] = r.NormFloat64()
		y[i] = r.NormFloat64()
	}
	c, err := Pearson(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(c) > 0.05 {
		t.Fatalf("independent series correlation too large: %v", c)
	}
}

// meanVar returns the mean and population variance of xs (two passes).
func meanVar(xs []float64) (mean, variance float64) {
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		variance += (x - mean) * (x - mean)
	}
	return mean, variance / float64(len(xs))
}

func TestSamplerMeans(t *testing.T) {
	r := rand.New(rand.NewSource(123))
	check := func(name string, s Sampler, n int, tol float64) {
		t.Helper()
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = s.Sample(r)
		}
		if mean, _ := meanVar(xs); math.Abs(mean-s.Mean()) > tol*s.Mean() {
			t.Errorf("%s: empirical mean %v vs analytic %v", name, mean, s.Mean())
		}
	}
	check("lognormal", LognormalFromMoments(100, 0.3, 6), 100000, 0.02)
	check("exponential", Exponential{MeanValue: 42}, 100000, 0.02)
	check("uniform", Uniform{Lo: 10, Hi: 20}, 100000, 0.02)
	check("zipf", NewZipfWork(50, 0.5, 1.1, 10000), 100000, 0.02)
	check("scaled", Scaled{K: 3, S: Constant{V: 7}}, 10, 1e-12)
	mix := NewMixture(
		MixtureComponent{Weight: 0.7, Sampler: Constant{V: 10}},
		MixtureComponent{Weight: 0.3, Sampler: Constant{V: 20}},
	)
	check("mixture", mix, 100000, 0.02)
}

func TestLognormalFromMomentsCV(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	l := LognormalFromMoments(200, 0.5, 0)
	xs := make([]float64, 200000)
	for i := range xs {
		xs[i] = l.Sample(r)
	}
	mean, variance := meanVar(xs)
	cv := math.Sqrt(variance) / mean
	if math.Abs(cv-0.5) > 0.03 {
		t.Fatalf("cv = %v, want 0.5", cv)
	}
}

func TestLognormalClamp(t *testing.T) {
	l := LognormalFromMoments(100, 1.0, 3)
	r := rand.New(rand.NewSource(17))
	for i := 0; i < 50000; i++ {
		if v := l.Sample(r); v > l.Max {
			t.Fatalf("sample %v exceeds clamp %v", v, l.Max)
		}
	}
}

func TestMixtureEdgeCases(t *testing.T) {
	empty := NewMixture()
	r := rand.New(rand.NewSource(1))
	if empty.Sample(r) != 0 || empty.Mean() != 0 {
		t.Fatal("empty mixture must sample/mean 0")
	}
}

func TestZipfWorkSkew(t *testing.T) {
	// Higher exponents concentrate mass on low ranks → lower mean work.
	flat := NewZipfWork(10, 1, 0.5, 1000)
	skew := NewZipfWork(10, 1, 2.0, 1000)
	if skew.Mean() >= flat.Mean() {
		t.Fatalf("skewed mean %v should be below flat mean %v", skew.Mean(), flat.Mean())
	}
}

func TestRollingWindowEviction(t *testing.T) {
	w := NewRollingWindow(100)
	for i := int64(0); i < 10; i++ {
		w.Add(i*50, float64(i))
	}
	// At t=450, span 100 → samples with T in (350, 450]: T=400, 450.
	if w.Len() != 2 {
		t.Fatalf("len = %d, want 2", w.Len())
	}
	vals := w.Values()
	if vals[0] != 8 || vals[1] != 9 {
		t.Fatalf("values = %v", vals)
	}
}

func TestRollingWindowPercentileAndMean(t *testing.T) {
	w := NewRollingWindow(1000)
	if w.Percentile(0.95) != 0 {
		t.Fatal("empty window must report 0")
	}
	for i := 1; i <= 100; i++ {
		w.Add(int64(i), float64(i))
	}
	if got := w.Percentile(0.95); got != 95 {
		t.Fatalf("p95 = %v, want 95", got)
	}
}

// TestRollingWindowFillingPercentileAllocs pins the feedback path while
// the window is still filling: each tick adds a sample and measures the
// tail, so the selection scratch must grow geometrically rather than be
// replaced every time the live count rises.
func TestRollingWindowFillingPercentileAllocs(t *testing.T) {
	w := NewRollingWindow(1 << 40)
	r := rand.New(rand.NewSource(3))
	var now int64
	allocs := testing.AllocsPerRun(2000, func() {
		now++
		w.Add(now, r.Float64())
		w.Percentile(0.95)
	})
	if allocs != 0 {
		t.Fatalf("filling Add+Percentile = %v allocs/op, want 0", allocs)
	}
	for i := 0; i < 50; i++ {
		now++
		w.Add(now, r.Float64())
		if got, want := w.Percentile(0.95), Percentile(w.Values(), 0.95); got != want {
			t.Fatalf("after %d samples: Percentile = %v, nearest rank = %v", w.Len(), got, want)
		}
	}
}

func TestRollingWindowAdvanceTo(t *testing.T) {
	w := NewRollingWindow(10)
	w.Add(0, 1)
	w.Add(5, 2)
	w.AdvanceTo(16)
	if w.Len() != 0 {
		t.Fatalf("len = %d, want 0 after advancing past span", w.Len())
	}
}

func TestRollingWindowCompaction(t *testing.T) {
	w := NewRollingWindow(10)
	for i := int64(0); i < 100000; i++ {
		w.Add(i, float64(i))
	}
	if w.Len() > 11 {
		t.Fatalf("window retained too many samples: %d", w.Len())
	}
	if cap(w.buf) > 1<<16 {
		t.Fatalf("window buffer never compacted: cap=%d", cap(w.buf))
	}
}
