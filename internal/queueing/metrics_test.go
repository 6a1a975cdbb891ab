package queueing

import (
	"math"
	"math/rand"
	"testing"

	"rubik/internal/sim"
	"rubik/internal/stats"
)

// TestPooledTailNsMatchesPercentile pins PooledTailNs on pools large
// enough for the selector's counting passes: bitwise equal, up to the
// sign of a zero, to PercentileInPlace over the responses each log keeps
// after TrimWarmup, with integer latencies full of duplicates and a
// constant log. A record's latency is derived from its integer
// timestamps, so it is never NaN; stats' own tests pin NaN handling.
func TestPooledTailNsMatchesPercentile(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	sizes := []int{21_000, 0, 15_001, 9_000}
	logs := make([][]Completion, len(sizes))
	for i, n := range sizes {
		logs[i] = make([]Completion, n)
		for k := range logs[i] {
			v := math.Round(math.Exp(12 + r.NormFloat64()))
			if i == 3 {
				v = 250_000
			}
			logs[i][k] = Completion{ID: k, Done: sim.Time(v)}
		}
	}
	for _, w := range []float64{0, 0.1, 1, math.NaN()} {
		var pool []float64
		for _, l := range logs {
			for _, c := range TrimWarmup(l, w) {
				pool = append(pool, c.ResponseNs())
			}
		}
		for _, q := range []float64{math.NaN(), -1, 0, 1e-9, 0.5, 0.95, 0.999, 1, 2} {
			want := stats.PercentileInPlace(append([]float64(nil), pool...), q)
			got := PooledTailNs(logs, q, w)
			if math.Float64bits(got) != math.Float64bits(want) && !(got == 0 && want == 0) {
				t.Fatalf("warmup %v, q %v: PooledTailNs %v, PercentileInPlace %v", w, q, got, want)
			}
		}
	}
}
