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

// FuzzRollingPercentileMatchesSelect drives a RollingWindow through
// fuzzed add, advance and query sequences and checks every Percentile
// against PercentileInPlace over a copy of the live values. Successive
// queries pivot on the previous result, so the sequences reach every
// route: a rank on the pivot, above it, a few ranks below it (the top-k
// pass), far below it (the full selection), and NaN ranks. Results must
// match bit for bit, except that -0 and +0 may stand for each other (the
// caveat PercentileInPlace documents).
//
// Each op byte's low two bits pick the action and its high six bits the
// argument: add one value (a special value, a small integer for
// duplicates, or the next 8 bytes as raw float64 bits), add a run of
// arg+1 ascending values (ranks far from the pivot), advance the clock by
// arg (evicting), or query at one of the quantiles q ∈ {0, 0.5, 0.95, 1,
// NaN}.
func FuzzRollingPercentileMatchesSelect(f *testing.F) {
	f.Add([]byte{0x80, 0x81, 0x82, 0x83, 0x7d, 0x03, 0x07, 0x0b, 0x0f, 0x13, 0x0b, 0x42, 0x0b})
	f.Add([]byte{0xfd, 0x0f, 0x0b, 0x7d, 0x0f, 0x0b, 0x07, 0x03, 0x13, 0x0b, 0x1e, 0x0b, 0x7e, 0x0b})
	f.Add([]byte{0x00, 0x0c, 0x10, 0x14, 0x24, 0x0b, 0x0f, 0x13, 0x08, 0x0b, 0x03, 0x0f})
	f.Add([]byte{0xc8, 0, 0, 0, 0, 0, 0, 0xf8, 0x7f, 0x0b, 0x3d, 0x0b, 0x0f, 0x06, 0x0b})
	// Evictions that wrap the ring: 32 samples at t=0 and t=32 each, the
	// first 32 evicted at t=64, then 32 more that wrap to the ring's front.
	f.Add([]byte{0x7d, 0x82, 0x7d, 0x82, 0x0b, 0x7d, 0x0b, 0x0f, 0x07, 0x0b, 0x03, 0x13, 0x0b})
	f.Fuzz(func(t *testing.T, ops []byte) {
		qs := [...]float64{0, 0.5, 0.95, 1, math.NaN()}
		w := NewRollingWindow(64)
		var now int64
		next := 0.0
		for len(ops) > 0 {
			op := ops[0]
			ops = ops[1:]
			arg := int(op >> 2)
			switch op & 3 {
			case 0:
				var v float64
				switch {
				case arg < 16:
					v = specialValues[arg%len(specialValues)]
				case arg < 48 || len(ops) < 8:
					v = float64(arg % 8)
				default:
					v = math.Float64frombits(binary.LittleEndian.Uint64(ops))
					ops = ops[8:]
				}
				w.Add(now, v)
			case 1:
				for i := 0; i <= arg; i++ {
					next++
					w.Add(now, next)
				}
			case 2:
				now += int64(arg)
				w.AdvanceTo(now)
			case 3:
				q := qs[arg%len(qs)]
				got := w.Percentile(q)
				want := PercentileInPlace(w.Values(), q)
				if math.Float64bits(got) != math.Float64bits(want) &&
					!(got == 0 && want == 0) && !(got != got && want != want) {
					t.Fatalf("Percentile(%v) over %v = %v, PercentileInPlace %v", q, w.Values(), got, want)
				}
			}
		}
	})
}
