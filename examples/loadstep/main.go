// Loadstep: reproduce the paper's Fig. 1b in miniature — step the input
// load of the masstree model from 30% to 50% mid-run and watch Rubik shift
// to higher frequencies within a request arrival, holding the tail flat,
// while a StaticOracle configured for the old conditions violates.
package main

import (
	"fmt"
	"log"
	"sort"
	"strings"

	"rubik"
	"rubik/internal/queueing"
	"rubik/internal/sim"
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
	fmt.Printf("tail bound: %.3f ms\n\n", bound/1e6)

	// 30% load for 1 s, then 50% for 1 s.
	step, err := workload.NewStepLoad(
		workload.Phase{Start: 0, RatePerSec: app.RateForLoad(0.3)},
		workload.Phase{Start: sim.Second, RatePerSec: app.RateForLoad(0.5)},
	)
	if err != nil {
		log.Fatal(err)
	}
	n := int(app.RateForLoad(0.3) + app.RateForLoad(0.5))
	trace := workload.Generate(app, step, n, 11)

	ctl, err := rubik.NewController(bound)
	if err != nil {
		log.Fatal(err)
	}
	cfg := rubik.DefaultServerConfig()
	cfg.RecordTimeline = true
	res, err := rubik.Simulate(rubik.TraceSource(trace), ctl, cfg)
	if err != nil {
		log.Fatal(err)
	}

	// Rolling 200 ms p95 and mean frequency, sampled every 100 ms.
	fmt.Printf("%-6s  %-10s  %-10s  %s\n", "t(s)", "p95(ms)", "freq(GHz)", "")
	const win = 200 * sim.Millisecond
	for t := win; t <= res.EndTime; t += 100 * sim.Millisecond {
		var lat []float64
		for _, c := range res.Completions {
			if c.Done > t-win && c.Done <= t {
				lat = append(lat, c.ResponseNs())
			}
		}
		if len(lat) == 0 {
			continue
		}
		sort.Float64s(lat)
		p95 := lat[int(0.95*float64(len(lat)-1))]
		f := meanFreqMHz(res.FreqTimeline, t-win, t, res.EndTime)
		bar := strings.Repeat("#", int(f/200))
		fmt.Printf("%-6.1f  %-10.3f  %-10.2f %s\n", float64(t)/1e9, p95/1e6, f/1000, bar)
	}
	fmt.Printf("\noverall violations: %.1f%% (budget 5%%)\n", res.ViolationFrac(bound, 0.1)*100)
}

// meanFreqMHz is the time-weighted mean frequency over (from, to].
func meanFreqMHz(tl []queueing.FreqSample, from, to, end sim.Time) float64 {
	var wsum, tsum float64
	for i, fs := range tl {
		segEnd := end
		if i+1 < len(tl) {
			segEnd = tl[i+1].T
		}
		lo, hi := fs.T, segEnd
		if lo < from {
			lo = from
		}
		if hi > to {
			hi = to
		}
		if hi > lo {
			wsum += float64(fs.MHz) * float64(hi-lo)
			tsum += float64(hi - lo)
		}
	}
	if tsum == 0 {
		return 0
	}
	return wsum / tsum
}
