package rubik_test

// Compiled godoc examples for the public API. Simulations are
// deterministic per seed, so `go test` runs the examples that carry an
// Output line and checks what they print.

import (
	"fmt"
	"log"
	"os"

	"rubik"
)

// Example shows the paper's headline workflow: derive the tail bound,
// run Rubik, and compare against fixed-frequency execution.
func Example() {
	app, err := rubik.AppByName("masstree")
	if err != nil {
		log.Fatal(err)
	}
	bound, err := rubik.TailBound(app, 1)
	if err != nil {
		log.Fatal(err)
	}
	trace := rubik.GenerateTrace(app, 0.3, 9000, 7) // 30% load

	cfg := rubik.DefaultServerConfig()
	fixed, err := rubik.Simulate(rubik.TraceSource(trace), rubik.Fixed(rubik.NominalMHz), cfg)
	if err != nil {
		log.Fatal(err)
	}
	ctl, err := rubik.NewController(bound)
	if err != nil {
		log.Fatal(err)
	}
	res, err := rubik.Simulate(rubik.TraceSource(trace), ctl, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("p95 %.3f ms (bound %.3f ms), core energy -%.0f%%\n",
		res.TailNs(rubik.TailPercentile, 0.1)/1e6, bound/1e6,
		(1-res.ActiveEnergyJ/fixed.ActiveEnergyJ)*100)
	// Output: p95 0.456 ms (bound 0.462 ms), core energy -37%
}

// ExampleStaticOracleMHz finds the lowest static frequency that meets a
// bound — the paper's upper bound for feedback controllers like Pegasus.
func ExampleStaticOracleMHz() {
	app, err := rubik.AppByName("xapian")
	if err != nil {
		log.Fatal(err)
	}
	bound, err := rubik.TailBound(app, 1)
	if err != nil {
		log.Fatal(err)
	}
	trace := rubik.GenerateTrace(app, 0.4, 6000, 2)
	mhz, feasible, err := rubik.StaticOracleMHz(trace, bound)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("lowest safe static frequency: %d MHz (feasible=%v)\n", mhz, feasible)
	// Output: lowest safe static frequency: 2200 MHz (feasible=true)
}

// ExampleRunExperiment regenerates a paper artifact.
func ExampleRunExperiment() {
	opts := rubik.ExperimentOptions{Quick: true, Seed: 42}
	if err := rubik.RunExperiment("table3", opts, os.Stdout); err != nil {
		log.Fatal(err)
	}
}
