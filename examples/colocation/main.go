// Colocation: reproduce the paper's Sec. 6 scenario on one server — share
// the cores of a latency-critical masstree node with a mix of batch
// applications. RubikColoc absorbs the core-state interference and keeps
// the tail at the bound while the batch mix soaks up the idle cycles;
// StaticColoc, with no latency feedback, lets the tail drift over the
// bound.
package main

import (
	"fmt"
	"log"

	"rubik"
	"rubik/internal/coloc"
	"rubik/internal/policy"
	"rubik/internal/workload"
)

func main() {
	app, err := rubik.AppByName("masstree")
	if err != nil {
		log.Fatal(err)
	}
	bound, err := rubik.TailBound(app, 1)
	if err != nil {
		log.Fatal(err)
	}
	load := 0.6
	mix := workload.Mixes(1, 6, 42)[0]

	fmt.Printf("masstree at %.0f%% load, bound %.3f ms, colocated with:", load*100, bound/1e6)
	for _, b := range mix {
		fmt.Printf(" %s", b.Name)
	}
	fmt.Println()

	// StaticColoc frequency: StaticOracle on an uncolocated trace.
	tr := rubik.GenerateTrace(app, load, 4000, 3)
	so, err := policy.StaticOracle(tr, rubik.DefaultGrid(), bound, rubik.TailPercentile,
		policy.DefaultReplayConfig())
	if err != nil {
		log.Fatal(err)
	}

	cfg := coloc.DefaultServerConfig(app, mix, load, bound, 7)
	st, err := coloc.RunStaticColocServer(cfg, so.MHz)
	if err != nil {
		log.Fatal(err)
	}
	rb, err := coloc.RunRubikColocServer(cfg)
	if err != nil {
		log.Fatal(err)
	}

	report := func(name string, res coloc.ServerResult) {
		var units, energy float64
		for _, c := range res.Cores {
			units += c.BatchUnits
			energy += c.LCEnergyJ + c.BatchEnergyJ
		}
		tail := res.TailNs(rubik.TailPercentile, 0.1)
		fmt.Printf("%-12s p95 %.3f ms (%.2fx bound)   batch %.0f units   cores %.2f J\n",
			name, tail/1e6, tail/bound, units, energy)
	}
	fmt.Println()
	report(fmt.Sprintf("static@%d", so.MHz), st)
	report("rubikcoloc", rb)
	fmt.Println("\nRubikColoc raises the frequency only when interference or queuing")
	fmt.Println("threatens the tail; the batch mix gets every remaining cycle.")
}
