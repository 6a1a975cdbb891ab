package stats

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// pooledQs are the quantiles the pooled selector is pinned at.
var pooledQs = []float64{math.NaN(), -1, 0, 1e-9, 0.5, 0.95, 0.999, 1, 2}

// samePooled reports whether the pooled selector's result got is
// PercentileInPlace's want bit for bit, but for the sign of a zero.
func samePooled(got, want float64) bool {
	return math.Float64bits(got) == math.Float64bits(want) || (got == 0 && want == 0)
}

func floatValue(v *float64) float64 { return *v }

// splitParts cuts s into parts at the given lengths (cycled), so a pool
// spans several logs, empty ones included.
func splitParts(s []float64, lens []int) [][]float64 {
	var parts [][]float64
	for i := 0; len(s) > 0; i++ {
		n := min(lens[i%len(lens)], len(s))
		parts = append(parts, s[:n])
		s = s[n:]
	}
	return append(parts, nil)
}

// checkPooled compares the pooled selector over s, split into parts, at
// every gather limit from "count every digit" up to the default, with
// PercentileInPlace over a copy of s, and checks the parts are untouched.
func checkPooled(t *testing.T, s []float64, lens []int, q float64) {
	t.Helper()
	want := PercentileInPlace(slices.Clone(s), q)
	orig := slices.Clone(s)
	parts := splitParts(s, lens)
	for _, limit := range []int{0, 1, 3, 64, gatherLimit} {
		if got := pooledPercentile(parts, floatValue, q, limit); !samePooled(got, want) {
			t.Fatalf("pooled(limit %d, q %v) over %v = %v (%#x), PercentileInPlace %v (%#x)",
				limit, q, orig, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	if got := PooledPercentile(parts, floatValue, q); !samePooled(got, want) {
		t.Fatalf("PooledPercentile(q %v) = %v, PercentileInPlace %v", q, got, want)
	}
	for i := range s {
		if math.Float64bits(s[i]) != math.Float64bits(orig[i]) {
			t.Fatal("the pooled selector wrote to its input")
		}
	}
}

// TestPooledPercentileMatchesInPlace pins the selector bitwise against
// PercentileInPlace on pools of duplicates, one repeated value, signed
// zeros, NaN samples, a single sample and random latencies, spread over
// uneven parts.
func TestPooledPercentileMatchesInPlace(t *testing.T) {
	r := rand.New(rand.NewSource(33))
	negZero := math.Copysign(0, -1)
	fill := func(n int, v func(i int) float64) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = v(i)
		}
		return s
	}
	pools := map[string][]float64{
		"empty":       nil,
		"single":      {42.5},
		"single NaN":  {math.NaN()},
		"duplicates":  fill(500, func(int) float64 { return float64(r.Intn(5)) }),
		"all equal":   fill(300, func(int) float64 { return 7 }),
		"all NaN":     fill(40, func(int) float64 { return math.NaN() }),
		"signed zero": fill(200, func(i int) float64 { return [...]float64{0, negZero, 1, -1}[i%4] }),
		"NaN mixed": fill(400, func(int) float64 {
			if r.Intn(4) == 0 {
				return math.NaN()
			}
			return r.NormFloat64() * 1e4
		}),
		"specials":  fill(250, func(int) float64 { return specialValues[r.Intn(len(specialValues))] }),
		"latencies": fill(5000, func(int) float64 { return math.Round(math.Exp(11 + 1.5*r.NormFloat64())) }),
	}
	for name, s := range pools {
		for _, lens := range [][]int{{len(s) + 1}, {1}, {7, 0, 50}} {
			for _, q := range pooledQs {
				t.Run(name, func(t *testing.T) { checkPooled(t, s, lens, q) })
			}
		}
	}
}

// TestPooledPercentileAllocs pins what a call costs: the counters and
// the rank's bucket, not a copy of the pool.
func TestPooledPercentileAllocs(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	s := make([]float64, 200_000)
	for i := range s {
		s[i] = math.Round(math.Exp(11 + r.NormFloat64()))
	}
	parts := splitParts(s, []int{4000})
	var got float64
	allocs := testing.AllocsPerRun(5, func() { got = PooledPercentile(parts, floatValue, 0.99) })
	if allocs > 2 {
		t.Fatalf("PooledPercentile made %v allocations, want the counters and one bucket", allocs)
	}
	if want := PercentileInPlace(slices.Clone(s), 0.99); got != want {
		t.Fatalf("PooledPercentile = %v, PercentileInPlace %v", got, want)
	}
}

// FuzzPooledTailMatchesPercentile drives the pooled comparison from
// fuzzed bytes, decoded as in FuzzPercentileMatchesSort; split sets the
// part lengths.
func FuzzPooledTailMatchesPercentile(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 20, 21, 20}, 0.95, uint8(3))
	f.Add([]byte{200, 0, 0, 0, 0, 0, 0, 248, 127, 16, 17, 0}, 0.5, uint8(1))
	f.Add([]byte{3, 4, 3, 4, 3, 4}, 1.0, uint8(0))
	f.Add([]byte{}, math.NaN(), uint8(9))
	f.Fuzz(func(t *testing.T, data []byte, q float64, split uint8) {
		var s []float64
		for len(data) > 0 && len(s) < 4096 {
			b := data[0]
			data = data[1:]
			switch {
			case b < 16:
				s = append(s, specialValues[int(b)%len(specialValues)])
			case b < 128:
				s = append(s, float64(b%8))
			case len(data) >= 8:
				s = append(s, math.Float64frombits(binary.LittleEndian.Uint64(data)))
				data = data[8:]
			}
		}
		lens := []int{int(split%17) + 1, int(split / 17)}
		checkPooled(t, s, lens, q)
		for _, q := range pooledQs {
			checkPooled(t, s, lens, q)
		}
	})
}
