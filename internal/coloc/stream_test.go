package coloc

import (
	"reflect"
	"testing"

	"rubik/internal/cpu"
	"rubik/internal/queueing"
	"rubik/internal/workload"
)

// TestRunCoreSourceMatchesTrace is the coloc leg of the tentpole
// property: a colocated core fed by a streaming source produces the
// byte-identical CoreResult to replaying the materialized trace of the
// same seed — interference hooks, batch accrual and all.
func TestRunCoreSourceMatchesTrace(t *testing.T) {
	app := workload.Masstree()
	const n, seed = 2000, 51
	base := CoreConfig{
		App:               app,
		Batch:             workload.BatchPool()[0],
		LCPolicy:          queueing.FixedPolicy{MHz: cpu.NominalMHz},
		Grid:              cpu.DefaultGrid(),
		Power:             cpu.DefaultPowerModel(),
		TransitionLatency: 4000,
		Interference:      DefaultInterference(),
	}

	viaTrace := base
	viaTrace.Source = workload.NewTraceSource(workload.GenerateAtLoad(app, 0.5, n, seed))
	want, err := RunCore(viaTrace)
	if err != nil {
		t.Fatal(err)
	}

	viaSource := base
	viaSource.Source = workload.NewLoadSource(app, 0.5, n, seed)
	got, err := RunCore(viaSource)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("streamed coloc CoreResult differs from materialized replay")
	}
	if len(got.Completions) != n {
		t.Fatalf("served %d of %d", len(got.Completions), n)
	}
}
