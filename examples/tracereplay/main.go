// Tracereplay: the paper's trace-driven methodology (Sec. 5.3) as a
// library workflow — capture a request trace once, persist it as JSON
// Lines, and replay the identical trace under every scheme so comparisons
// are apples-to-apples. Prints the oracle hierarchy: DynamicOracle
// (per-request frequencies, clairvoyant) <= AdrenalineOracle (two
// frequencies, oracular request classes) <= StaticOracle (one frequency).
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"rubik"
	"rubik/internal/policy"
	"rubik/internal/workload"
)

func main() {
	app, err := rubik.AppByName("specjbb") // short/long request mix
	if err != nil {
		log.Fatal(err)
	}
	bound, err := rubik.TailBound(app, 1)
	if err != nil {
		log.Fatal(err)
	}
	trace := rubik.GenerateTrace(app, 0.4, 8000, 21)

	// Persist and reload the trace (validates on load).
	path := filepath.Join(os.TempDir(), "specjbb-40.trace.jsonl")
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := workload.WriteJSONL(f, trace.App, trace.Seed, rubik.TraceSource(trace)); err != nil {
		log.Fatal(err)
	}
	f.Close()
	rf, err := os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	loaded, err := workload.Load(rf)
	rf.Close()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trace: %d specjbb requests at 40%% load, saved to %s\n", len(loaded.Requests), path)
	fmt.Printf("tail bound: %.3f ms\n\n", bound/1e6)

	grid := rubik.DefaultGrid()
	rcfg := policy.DefaultReplayConfig()

	fixed, err := policy.Replay(loaded, policy.UniformAssignment(len(loaded.Requests), rubik.NominalMHz), rcfg)
	if err != nil {
		log.Fatal(err)
	}
	st, err := policy.StaticOracle(loaded, grid, bound, rubik.TailPercentile, rcfg)
	if err != nil {
		log.Fatal(err)
	}
	ad, err := policy.AdrenalineOracle(loaded, grid, bound, rubik.TailPercentile, rcfg)
	if err != nil {
		log.Fatal(err)
	}
	dyn, err := policy.DynamicOracle(loaded, grid, bound, rubik.TailPercentile, rcfg)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%-18s %-12s %-12s %s\n", "scheme", "p95 (ms)", "mJ/request", "notes")
	row := func(name string, r policy.ReplayResult, notes string) {
		fmt.Printf("%-18s %-12.3f %-12.3f %s\n",
			name, r.TailNs(rubik.TailPercentile)/1e6, r.EnergyPerRequestJ()*1e3, notes)
	}
	row("fixed@2.4GHz", fixed, "")
	row("static-oracle", st.Result, fmt.Sprintf("f=%d MHz", st.MHz))
	row("adrenaline-oracle", ad.Result, fmt.Sprintf("boost >=%.2f ms: %d/%d MHz",
		ad.ThresholdNs/1e6, ad.LowMHz, ad.HighMHz))
	row("dynamic-oracle", dyn.Result, fmt.Sprintf("%d step-downs accepted", dyn.Reductions))
}
