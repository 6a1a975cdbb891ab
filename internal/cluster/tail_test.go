package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"rubik/internal/coloc"
	"rubik/internal/queueing"
	"rubik/internal/sim"
	"rubik/internal/stats"
)

// hostileQs and hostileWarmups are the arguments every measured-tail path
// must survive: NaN, both infinities, negatives, zero, the clamps and
// values just inside them.
var (
	hostileQs      = []float64{math.NaN(), math.Inf(-1), -1, 0, 1e-300, 0.5, 0.95, 1, 2, math.Inf(1)}
	hostileWarmups = []float64{math.NaN(), math.Inf(-1), -0.5, 0, 0.1, 0.999999, 1, 1.5, math.Inf(1)}
)

// warmOracle applies the documented warmup rule (queueing.TrimWarmup) to
// one log of responses: NaN or <= 0 trims nothing, >= 1 trims everything.
func warmOracle(resp []float64, w float64) []float64 {
	switch {
	case !(w > 0):
		return resp
	case w >= 1:
		return nil
	}
	return resp[int(w*float64(len(resp))):]
}

// pooledOracle pools the post-warmup responses of every log, sorts them
// and indexes the nearest rank: the sort-then-index definition the
// selection path reproduces. NaN q gives NaN, an empty pool 0.
func pooledOracle(logs [][]float64, q, w float64) float64 {
	var pool []float64
	for _, l := range logs {
		pool = append(pool, warmOracle(l, w)...)
	}
	if len(pool) == 0 {
		return 0
	}
	if math.IsNaN(q) {
		return math.NaN()
	}
	sort.Float64s(pool)
	rank := 0
	if q > 0 {
		rank = int(math.Ceil(math.Min(q, 1)*float64(len(pool)))) - 1
	}
	return pool[min(max(rank, 0), len(pool)-1)]
}

// tailOrPanic calls tail and turns a panic into an error.
func tailOrPanic(tail func(q, w float64) float64, q, w float64) (v float64, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return tail(q, w), nil
}

// TestTailNsHostileArgs calls every measured-tail method with hostile
// quantiles and warmup fractions. None may panic. Over logged completions
// each must equal the sort oracle under the documented rules (NaN or
// non-positive warmup trims nothing, warmup >= 1 trims everything, a NaN
// q returns NaN, an empty pool 0). Over streamed histograms a NaN q
// returns NaN, q <= 0 and q >= 1 clamp, and the warmup is ignored.
func TestTailNsHostileArgs(t *testing.T) {
	r := rand.New(rand.NewSource(16))
	const cores, perCore = 3, 40
	logs := make([][]float64, 2*cores)
	qrs := make([]queueing.Result, len(logs))
	streamed := make([]queueing.Result, len(logs))
	ccs := make([]coloc.CoreResult, len(logs))
	for i := range logs {
		h := stats.NewResponseHistogram()
		for k := 0; k < perCore+i; k++ {
			v := 1e3 * float64(1+r.Intn(500))
			logs[i] = append(logs[i], v)
			c := queueing.Completion{ID: k, Done: sim.Time(v)}
			qrs[i].Completions = append(qrs[i].Completions, c)
			ccs[i].Completions = append(ccs[i].Completions, c)
			h.Observe(v)
		}
		streamed[i] = queueing.Result{ResponseHist: h, Served: len(logs[i])}
	}
	sockA, sockB := Result{PerCore: qrs[:cores]}, Result{PerCore: qrs[cores:]}
	fleet := FleetResult{Sockets: []Result{sockA, sockB}}

	logged := []struct {
		name string
		tail func(q, w float64) float64
		logs [][]float64
	}{
		{"queueing.Result", qrs[0].TailNs, logs[:1]},
		{"queueing.Result/empty", queueing.Result{}.TailNs, nil},
		{"cluster.Result", sockA.TailNs, logs[:cores]},
		{"cluster.Result/empty", Result{}.TailNs, nil},
		{"cluster.FleetResult", fleet.TailNs, logs},
		{"coloc.CoreResult", ccs[0].TailNs, logs[:1]},
		{"coloc.ServerResult", coloc.ServerResult{Cores: ccs}.TailNs, logs},
		{"coloc.ServerResult/empty", coloc.ServerResult{}.TailNs, nil},
	}
	for _, c := range logged {
		for _, q := range hostileQs {
			for _, w := range hostileWarmups {
				got, err := tailOrPanic(c.tail, q, w)
				if err != nil {
					t.Fatalf("%s.TailNs(%v, %v): %v", c.name, q, w, err)
				}
				if want := pooledOracle(c.logs, q, w); !(got == want || got != got && want != want) {
					t.Errorf("%s.TailNs(%v, %v) = %v, sort oracle %v", c.name, q, w, got, want)
				}
			}
		}
	}

	streamedCases := []struct {
		name string
		tail func(q, w float64) float64
	}{
		{"queueing.Result/streamed", streamed[0].TailNs},
		{"cluster.Result/streamed", Result{PerCore: streamed[:cores]}.TailNs},
		{"cluster.FleetResult/streamed", FleetResult{Sockets: []Result{
			{PerCore: streamed[:cores]}, {PerCore: streamed[cores:]}}}.TailNs},
	}
	for _, c := range streamedCases {
		lo, hi := c.tail(0, 0), c.tail(1, 0)
		if !(lo > 0 && hi >= lo) {
			t.Fatalf("%s: q=0 %v, q=1 %v", c.name, lo, hi)
		}
		for _, q := range hostileQs {
			want := c.tail(q, 0)
			switch {
			case math.IsNaN(q):
				want = math.NaN()
			case q <= 0:
				want = lo
			case q >= 1:
				want = hi
			}
			for _, w := range hostileWarmups {
				got, err := tailOrPanic(c.tail, q, w)
				if err != nil {
					t.Fatalf("%s.TailNs(%v, %v): %v", c.name, q, w, err)
				}
				if !(got == want || got != got && want != want) {
					t.Errorf("%s.TailNs(%v, %v) = %v, want %v", c.name, q, w, got, want)
				}
			}
		}
	}

	// The pool is the function's own: a tail leaves the logs untouched.
	before := slices.Clone(fleet.Sockets[0].PerCore[0].Completions)
	fleet.TailNs(0.5, 0)
	if !slices.Equal(before, fleet.Sockets[0].PerCore[0].Completions) {
		t.Fatal("FleetResult.TailNs reordered a completion log")
	}
}
