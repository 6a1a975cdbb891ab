// Quickstart: run Rubik on the masstree key-value store model and compare
// it with fixed-frequency execution — the paper's headline result in a few
// lines of library code.
package main

import (
	"fmt"
	"log"

	"rubik"
)

func main() {
	app, err := rubik.AppByName("masstree")
	if err != nil {
		log.Fatal(err)
	}

	// The paper's latency target: the p95 of fixed-nominal execution at
	// 50% load.
	bound, err := rubik.TailBound(app, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("masstree tail bound: %.3f ms (p95 @ 2.4 GHz, 50%% load)\n\n", bound/1e6)

	fmt.Printf("%-6s  %-12s  %-12s  %-10s  %s\n", "load", "fixed p95", "rubik p95", "energy", "violations")
	for _, load := range []float64{0.2, 0.3, 0.4, 0.5} {
		trace := rubik.GenerateTrace(app, load, 6000, 7)

		fixed, err := rubik.Simulate(rubik.TraceSource(trace), rubik.Fixed(rubik.NominalMHz), rubik.DefaultServerConfig())
		if err != nil {
			log.Fatal(err)
		}
		ctl, err := rubik.NewController(bound)
		if err != nil {
			log.Fatal(err)
		}
		res, err := rubik.Simulate(rubik.TraceSource(trace), ctl, rubik.DefaultServerConfig())
		if err != nil {
			log.Fatal(err)
		}

		saving := 1 - res.ActiveEnergyJ/fixed.ActiveEnergyJ
		fmt.Printf("%-7s %9.3f ms %9.3f ms  %9.1f%%  %9.1f%%\n",
			fmt.Sprintf("%d%%", int(load*100)),
			fixed.TailNs(rubik.TailPercentile, 0.1)/1e6,
			res.TailNs(rubik.TailPercentile, 0.1)/1e6,
			saving*100,
			res.ViolationFrac(bound, 0.1)*100)
	}
	fmt.Println("\nRubik holds the tail at the bound while cutting core energy;")
	fmt.Println("fixed-frequency execution over-provisions at every load below 50%.")
}
