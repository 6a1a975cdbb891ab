package coloc

import (
	"math"
	"testing"

	"rubik/internal/cpu"
	"rubik/internal/queueing"
	"rubik/internal/workload"
)

// TestColocCoreMatchesQueueingWithoutInterference ties the two simulators
// together: with the interference model zeroed, a colocated core must
// serve the LC trace exactly like the standalone queueing server (the
// batch app only consumes gaps), while still making batch progress.
func TestColocCoreMatchesQueueingWithoutInterference(t *testing.T) {
	for _, appName := range []string{"masstree", "xapian"} {
		app, err := workload.AppByName(appName)
		if err != nil {
			t.Fatal(err)
		}
		tr := workload.GenerateAtLoad(app, 0.5, 1500, 33)

		colRes, err := RunCore(CoreConfig{
			App:               app,
			Batch:             workload.BatchPool()[0],
			Source:            workload.NewTraceSource(tr),
			LCPolicy:          queueing.FixedPolicy{MHz: cpu.NominalMHz},
			BatchMHz:          cpu.NominalMHz, // same frequency: no switch lag differences
			Grid:              cpu.DefaultGrid(),
			Power:             cpu.DefaultPowerModel(),
			TransitionLatency: 0,
			Interference:      Interference{}, // zero: no pollution, no preemption cost
		})
		if err != nil {
			t.Fatal(err)
		}

		qcfg := queueing.DefaultConfig()
		qcfg.TransitionLatency = 0
		qcfg.WakeLatency = 0
		qRes, err := queueing.Run(tr, queueing.FixedPolicy{MHz: cpu.NominalMHz}, qcfg)
		if err != nil {
			t.Fatal(err)
		}

		if len(colRes.Completions) != len(qRes.Completions) {
			t.Fatalf("%s: completion counts differ: %d vs %d",
				appName, len(colRes.Completions), len(qRes.Completions))
		}
		for i := range qRes.Completions {
			a, b := colRes.Completions[i], qRes.Completions[i]
			if a.ID != b.ID {
				t.Fatalf("%s: order differs at %d", appName, i)
			}
			if math.Abs(a.ResponseNs()-b.ResponseNs()) > 4 {
				t.Fatalf("%s: request %d response %v vs %v",
					appName, i, a.ResponseNs(), b.ResponseNs())
			}
		}
		// LC energy matches the standalone server's active energy.
		if math.Abs(colRes.LCEnergyJ-qRes.ActiveEnergyJ) > 1e-3*qRes.ActiveEnergyJ {
			t.Fatalf("%s: LC energy %v vs standalone %v",
				appName, colRes.LCEnergyJ, qRes.ActiveEnergyJ)
		}
		// And the batch app filled (only) the gaps.
		if colRes.BatchUnits <= 0 {
			t.Fatalf("%s: batch made no progress", appName)
		}
		wall := float64(colRes.EndTime)
		if gap := colRes.LCBusyNs + colRes.BatchBusyNs - wall; math.Abs(gap) > 0.01*wall {
			t.Fatalf("%s: busy accounting off by %v ns", appName, gap)
		}
	}
}
