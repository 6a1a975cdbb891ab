package rubik_test

// The repository's benchmarks, as two loops over the two registries:
//
//   - BenchmarkTracked/<Name> runs every hot-path micro-benchmark of
//     bench/registry — the per-event decision, the periodic tail-table
//     rebuild and the convolutions behind it, the event engine, the
//     queueing core and the fleet. cmd/rubikbench runs the same bodies
//     and gates them against bench/baseline.
//   - BenchmarkExperiment/<id> runs every paper table, figure and
//     extension in experiments.Registry() once per op at quick fidelity.
//
// Run with:
//
//	go test -run '^$' -bench . -benchmem
//	go test -run '^$' -bench 'Tracked/TailTableBuild$' -benchmem
import (
	"io"
	"testing"

	"rubik/bench/registry"
	"rubik/internal/experiments"
)

func BenchmarkTracked(b *testing.B) {
	for _, bm := range registry.All() {
		b.Run(bm.Name, bm.Fn)
	}
}

func BenchmarkExperiment(b *testing.B) {
	opts := experiments.Options{Quick: true, Seed: 42}
	for _, e := range experiments.Registry() {
		b.Run(e.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := experiments.RunAndRender(e.ID, opts, io.Discard); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
