package queueing

import (
	"math"
	"testing"

	"rubik/internal/sim"
	"rubik/internal/workload"
)

// latencyRun serves a 300-request masstree trace at 50% load, starting at
// nominal frequency under a fixed 800 MHz policy, with the given V/F
// transition and wake latencies.
func latencyRun(t *testing.T, transition, wake sim.Time) Result {
	t.Helper()
	cfg := DefaultConfig()
	cfg.TransitionLatency = transition
	cfg.WakeLatency = wake
	cfg.RecordTimeline = true
	tr := workload.GenerateAtLoad(workload.Masstree(), 0.5, 300, 1)
	res, err := Run(tr, FixedPolicy{MHz: 800}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Served != 300 {
		t.Fatalf("served %d of 300", res.Served)
	}
	return res
}

// switchLanded returns when the core first ran at 800 MHz, or false.
func switchLanded(res Result) (sim.Time, bool) {
	for _, s := range res.FreqTimeline {
		if s.MHz == 800 {
			return s.T, true
		}
	}
	return 0, false
}

// A longer V/F transition never lands the switch sooner, up to the
// largest representable latency: the switch time saturates instead of
// wrapping into the past, where it would land at once.
func TestTransitionLatencySaturates(t *testing.T) {
	lats := []sim.Time{0, 4 * sim.Microsecond, sim.Millisecond, 1 << 40, 1 << 62, math.MaxInt64 - 1, math.MaxInt64}
	var prevAt sim.Time
	var prevJ float64
	for k, lat := range lats {
		res := latencyRun(t, lat, 5*sim.Microsecond)
		at, ok := switchLanded(res)
		if !ok {
			t.Fatalf("latency %d: switch to 800 MHz never landed", lat)
		}
		if at < lat {
			t.Fatalf("latency %d: switch landed at %d, before the latency elapsed", lat, at)
		}
		j := res.ActiveEnergyJ
		if k > 0 && (at < prevAt || j < prevJ) {
			t.Fatalf("latency %d: switch at %d with %.6g J active, but latency %d switched at %d with %.6g J",
				lat, at, j, lats[k-1], prevAt, prevJ)
		}
		prevAt, prevJ = at, j
	}
	// Past the run's span the switch lands after the last completion, so
	// every request runs at nominal frequency whatever the latency.
	if a, b := latencyRun(t, 1<<62, 5*sim.Microsecond), latencyRun(t, math.MaxInt64, 5*sim.Microsecond); a.ActiveEnergyJ != b.ActiveEnergyJ {
		t.Fatalf("active energy %v J at latency 2^62 but %v J at MaxInt64", a.ActiveEnergyJ, b.ActiveEnergyJ)
	}
}

// A longer wake penalty never completes the first request sooner, up to
// the largest representable latency: its completion saturates instead of
// wrapping into the past, where it completed at once with no energy.
func TestWakeLatencySaturates(t *testing.T) {
	var prev sim.Time
	for _, wake := range []sim.Time{0, sim.Millisecond, 1 << 62, math.MaxInt64} {
		res := latencyRun(t, 4*sim.Microsecond, wake)
		first := res.Completions[0]
		// It arrives to an idle core, so it waits out the whole penalty,
		// or until the end of representable time.
		if first.Done < prev || first.Done-first.Arrival < min(wake, math.MaxInt64-first.Arrival) {
			t.Fatalf("wake %d: first request arrived at %d and was done at %d, previous wake done at %d",
				wake, first.Arrival, first.Done, prev)
		}
		if !(res.ActiveEnergyJ > 0) {
			t.Fatalf("wake %d: active energy %v J", wake, res.ActiveEnergyJ)
		}
		prev = first.Done
	}
	if got := latencyRun(t, 4*sim.Microsecond, math.MaxInt64).Completions[0].Done; got != math.MaxInt64 {
		t.Fatalf("first request done at %d, want the saturated time %d", got, int64(math.MaxInt64))
	}
}
