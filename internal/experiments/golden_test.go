package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden experiment outputs")

// TestGoldenOutputs pins the rendered output of the headline experiments
// byte-for-byte. The golden files were generated by the pre-refactor
// container/heap engine and per-event-allocating core, so they prove the
// zero-allocation event engine and queueing hot path produce identical
// results, not just statistically similar ones. Regenerate deliberately
// with: go test ./internal/experiments -run TestGoldenOutputs -update
func TestGoldenOutputs(t *testing.T) {
	for _, id := range []string{
		"fig1a", "fig9", "clusterscale", "scenarios", "capping", "fleetscale", "fleetcap", "fig15", "fig16",
		"ablation", "fig10", "fig11", "fig12", "fig1b", "fig2a", "fig2b", "fig2c", "fig6", "fig7", "fig8",
		"pegasus", "pmv", "table1", "table2", "table3",
	} {
		id := id
		t.Run(id, func(t *testing.T) {
			var buf bytes.Buffer
			opts := Options{Quick: true, Seed: 42, Workers: 1}
			if err := RunAndRender(id, opts, &buf); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", "golden_"+id+".txt")
			if *updateGolden {
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with -update): %v", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("%s output diverged from golden file %s\n--- got ---\n%s\n--- want ---\n%s",
					id, path, buf.Bytes(), want)
			}
		})
	}
}
