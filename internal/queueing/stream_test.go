package queueing

import (
	"reflect"
	"testing"

	"rubik/internal/sim"
	"rubik/internal/workload"
)

// TestRunSourceMatchesRun is the single-core half of the tentpole
// property: streaming Poisson and StepLoad sources through RunSource
// produces Results deeply identical to materializing the same seed's
// trace and replaying it through Run — same completions, same energy,
// same timelines, to the last bit.
func TestRunSourceMatchesRun(t *testing.T) {
	app := workload.Masstree()
	step, err := workload.NewStepLoad(
		workload.Phase{Start: 0, RatePerSec: app.RateForLoad(0.3)},
		workload.Phase{Start: sim.Second / 4, RatePerSec: app.RateForLoad(0.7)},
	)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name     string
		arrivals workload.ArrivalProcess
	}{
		{"poisson", workload.Poisson{RatePerSec: app.RateForLoad(0.5)}},
		{"step", step},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const n, seed = 2500, 77
			cfg := DefaultConfig()
			cfg.RecordTimeline = true

			tr := workload.Generate(app, tc.arrivals, n, seed)
			want, err := Run(tr, FixedPolicy{MHz: 2000}, cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := RunSource(workload.NewGenSource(app, tc.arrivals, n, seed), FixedPolicy{MHz: 2000}, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatal("streamed Result differs from materialized replay")
			}
			if got.Served != n || len(got.Completions) != n {
				t.Fatalf("served %d/%d of %d", got.Served, len(got.Completions), n)
			}
		})
	}
}

// TestDropCompletionsStreamsMetrics checks the streaming-metrics mode:
// identical energy/time accounting, no completion log, and a histogram
// tail within the bucket resolution of the exact tail.
func TestDropCompletionsStreamsMetrics(t *testing.T) {
	app := workload.Masstree()
	const n, seed = 4000, 5
	full, err := RunSource(workload.NewLoadSource(app, 0.5, n, seed), FixedPolicy{MHz: 2400}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.DropCompletions = true
	lean, err := RunSource(workload.NewLoadSource(app, 0.5, n, seed), FixedPolicy{MHz: 2400}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(lean.Completions) != 0 {
		t.Fatalf("DropCompletions retained %d completions", len(lean.Completions))
	}
	if lean.Served != n {
		t.Fatalf("served %d of %d", lean.Served, n)
	}
	if lean.ActiveEnergyJ != full.ActiveEnergyJ || lean.EndTime != full.EndTime {
		t.Fatal("streaming metrics changed the simulation")
	}
	if lean.EnergyPerRequestJ() != full.EnergyPerRequestJ() {
		t.Fatal("energy/request diverged")
	}
	exact := full.TailNs(0.95, 0)
	approx := lean.TailNs(0.95, 0)
	if rel := (approx - exact) / exact; rel > 0.08 || rel < -0.08 {
		t.Fatalf("histogram tail %.0f vs exact %.0f (rel %.3f)", approx, exact, rel)
	}
	// ViolationFrac must fall back to the histogram too, not report a
	// silent 0 for streamed runs.
	exactViol := full.ViolationFrac(exact, 0)
	leanViol := lean.ViolationFrac(exact, 0)
	if leanViol == 0 || leanViol > exactViol+0.03 || leanViol < exactViol-0.03 {
		t.Fatalf("streamed ViolationFrac %.4f vs exact %.4f", leanViol, exactViol)
	}
}

// TestClosedLoopRun drives a closed-loop population through RunSource:
// every spawned request must complete, in-flight never exceeds the
// population, and the run is deterministic.
func TestClosedLoopRun(t *testing.T) {
	app := workload.Masstree()
	cl := workload.ClosedLoop{
		App:       app,
		Clients:   8,
		MeanThink: sim.Time(10 * app.MeanServiceNsAtNominal()),
		N:         2000,
		Seed:      9,
	}
	run := func() Result {
		res, err := RunSource(cl.NewSource(), FixedPolicy{MHz: 2400}, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Served != 2000 {
		t.Fatalf("closed loop served %d of 2000", a.Served)
	}
	// A live run reaches the count the fresh source reports.
	if n := cl.NewSource().Len(); n != a.Served {
		t.Fatalf("fresh source Len %d, live run served %d", n, a.Served)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("closed-loop run not deterministic")
	}
	// Self-throttling: at most Clients requests are ever in the system.
	for i, c := range a.Completions {
		if c.QueueLenAtArrival >= cl.Clients {
			t.Fatalf("completion %d found %d in system with %d clients",
				i, c.QueueLenAtArrival, cl.Clients)
		}
	}
	// Each client's next request arrives only after its previous one
	// completed: arrivals never outrun completions by more than Clients.
	if len(a.Completions) > 0 {
		last := a.Completions[len(a.Completions)-1]
		if last.Done < last.Arrival {
			t.Fatal("bogus completion ordering")
		}
	}
}

// TestStreamingHotPathAllocs is the allocs/op guard for the streaming
// ingest path: a long streamed run must stay amortized allocation-free
// per request.
func TestStreamingHotPathAllocs(t *testing.T) {
	if raceTestBuild {
		t.Skip("race instrumentation allocates; the guard holds uninstrumented")
	}
	app := workload.Masstree()
	const n = 30000
	cfg := DefaultConfig()
	cfg.DropCompletions = true
	allocs := testing.AllocsPerRun(1, func() {
		res, err := RunSource(workload.NewLoadSource(app, 0.5, n, 3), FixedPolicy{MHz: 2400}, cfg)
		if err != nil || res.Served != n {
			t.Fatalf("run failed: %v served=%d", err, res.Served)
		}
	})
	if perReq := allocs / n; perReq > 0.05 {
		t.Errorf("streaming path allocates %.3f allocs/request (total %.0f for %d)", perReq, allocs, n)
	}
}

// TestFeederNotifyCompletionInert checks a completion forwarded to the
// feeder is a no-op for ordinary sources (no spurious rescheduling).
func TestFeederNotifyCompletionInert(t *testing.T) {
	eng := sim.NewEngine()
	tr := workload.GenerateAtLoad(workload.Masstree(), 0.5, 10, 1)
	var got []workload.Request
	f := NewSourceFeeder(eng, workload.NewTraceSource(tr), func(r workload.Request) { got = append(got, r) })
	f.Start()
	f.completed(12345) // before any arrival: must not disturb the schedule
	eng.Run()
	if len(got) != 10 {
		t.Fatalf("delivered %d of 10", len(got))
	}
	if !reflect.DeepEqual(got, tr.Requests) {
		t.Fatal("delivery order changed")
	}
}
