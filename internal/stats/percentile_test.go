package stats

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// sortOracle is the definition PercentileInPlace reproduces: sort a copy
// with sort.Float64s (NaNs first) and index the nearest rank
// ceil(q*n)-1, clamped to the slice; NaN for a NaN q, 0 when empty.
func sortOracle(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	if math.IsNaN(q) {
		return math.NaN()
	}
	c := slices.Clone(s)
	sort.Float64s(c)
	rank := 0
	if q > 0 {
		rank = int(math.Ceil(math.Min(q, 1)*float64(len(c)))) - 1
	}
	return c[min(max(rank, 0), len(c)-1)]
}

// sameValue compares by value, treating two NaNs as equal. It does not
// tell -0 from +0: sort.Float64s is unstable, so which signed zero it
// leaves at a rank is not defined, and neither is PercentileInPlace's.
func sameValue(a, b float64) bool { return a == b || (a != a && b != b) }

// percentileQs are the quantiles every oracle comparison sweeps: the
// clamps on both sides, a denormal and a tiny q, the paper's tails, +Inf
// and NaN.
var percentileQs = []float64{
	math.Inf(-1), -1, 0, math.SmallestNonzeroFloat64, 1e-9, 0.5, 0.95, 0.999,
	1, 1.5, math.Inf(1), math.NaN(),
}

// specialValues are the values sort orders delicately: NaN, both
// infinities, both zeros, the float64 extremes and duplicates' seeds.
var specialValues = []float64{
	math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
	math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, 1, -1, 2,
}

// checkAgainstOracle runs PercentileInPlace, Percentile and
// PercentileSorted on s at q and reports the first disagreement with the
// sort oracle. PercentileInPlace must also keep the multiset and
// Percentile must leave its input alone.
func checkAgainstOracle(t *testing.T, s []float64, q float64) {
	t.Helper()
	want := sortOracle(s, q)
	orig := slices.Clone(s)
	if got := Percentile(s, q); !sameValue(got, want) {
		t.Fatalf("Percentile(%v, %v) = %v, sort oracle %v", orig, q, got, want)
	}
	for i := range s {
		if math.Float64bits(s[i]) != math.Float64bits(orig[i]) {
			t.Fatalf("Percentile reordered its input %v", orig)
		}
	}
	sorted := slices.Clone(s)
	sort.Float64s(sorted)
	if got := PercentileSorted(sorted, q); !sameValue(got, want) {
		t.Fatalf("PercentileSorted(%v, %v) = %v, sort oracle %v", sorted, q, got, want)
	}
	if got := PercentileInPlace(s, q); !sameValue(got, want) {
		t.Fatalf("PercentileInPlace(%v, %v) = %v, sort oracle %v", orig, q, got, want)
	}
	after := slices.Clone(s)
	sort.Float64s(after)
	for i := range after {
		if !sameValue(after[i], sorted[i]) {
			t.Fatalf("PercentileInPlace changed the multiset of %v", orig)
		}
	}
}

// TestPercentileInPlaceMatchesSort pins selection against sort-then-index
// on random slices mixing duplicates, infinities, NaNs at random
// positions and signed zeros, at lengths 0-3 (below the median-of-three
// pivot), around small pivot partitions, and up to a few thousand.
func TestPercentileInPlaceMatchesSort(t *testing.T) {
	r := rand.New(rand.NewSource(16))
	lengths := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 31, 32, 33, 64, 100, 257, 1000, 4099}
	for _, n := range lengths {
		for trial := 0; trial < 30; trial++ {
			s := make([]float64, n)
			for i := range s {
				switch r.Intn(6) {
				case 0:
					s[i] = specialValues[r.Intn(len(specialValues))]
				case 1, 2:
					s[i] = float64(r.Intn(4)) // heavy duplicates
				default:
					s[i] = r.NormFloat64() * 1e5
				}
			}
			for _, q := range percentileQs {
				checkAgainstOracle(t, slices.Clone(s), q)
			}
		}
	}
	// Whole slices of one value, of NaN, and of the two zeros.
	for _, v := range []float64{0, math.NaN(), math.Inf(1), 7} {
		s := make([]float64, 50)
		for i := range s {
			s[i] = v
		}
		for _, q := range percentileQs {
			checkAgainstOracle(t, slices.Clone(s), q)
		}
	}
}

// FuzzPercentileMatchesSort drives the same oracle comparison from fuzzed
// bytes: each value takes one selector byte — below 16 picks a special
// value, below 128 a small integer (duplicates), otherwise the next 8
// bytes as raw float64 bits (any NaN payload included).
func FuzzPercentileMatchesSort(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 20, 21, 20}, 0.95)
	f.Add([]byte{200, 0, 0, 0, 0, 0, 0, 248, 127, 16, 17, 0}, 0.5)
	f.Add([]byte{3, 4, 3, 4, 3, 4}, 1.0)
	f.Add([]byte{}, math.NaN())
	f.Fuzz(func(t *testing.T, data []byte, q float64) {
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
		checkAgainstOracle(t, slices.Clone(s), q)
		for _, q := range percentileQs {
			checkAgainstOracle(t, slices.Clone(s), q)
		}
	})
}
