package experiments

import (
	"fmt"
	"io"
	"sort"

	"rubik/internal/coloc"
	"rubik/internal/policy"
	"rubik/internal/stats"
	"rubik/internal/workload"
)

// Fig15Result reproduces Fig. 15: the distribution of tail latencies,
// relative to each app's bound, across the LC-app × batch-mix colocation
// matrix at 60% load, for StaticColoc, RubikColoc, HW-T and HW-TPW.
type Fig15Result struct {
	Mixes int
	// Sorted descending tail ratios (tail / bound), one per (app, mix).
	StaticColoc []float64
	RubikColoc  []float64
	HWT         []float64
	HWTPW       []float64
}

// Fig15 runs the colocation tail comparison.
func Fig15(opts Options) (*Fig15Result, error) {
	h := newHarness(opts)
	load := 0.6
	nmixes := 20
	reqs := 3000
	apps := workload.Apps()
	if opts.Quick {
		// Use the short-request apps so a small trace still spans many
		// feedback windows (moses at 800 requests would end before
		// Rubik's 1 s rolling feedback settles).
		nmixes = 2
		reqs = 2500
		masstree, specjbb := workload.Masstree(), workload.Specjbb()
		apps = []workload.LCApp{masstree, specjbb}
	}
	mixes := workload.Mixes(nmixes, 6, opts.Seed+21)

	out := &Fig15Result{}
	for _, app := range apps {
		bound, err := h.bound(app)
		if err != nil {
			return nil, err
		}
		// StaticColoc frequency: StaticOracle on the uncolocated trace.
		tr := h.trace(app, load)
		so, err := policy.StaticOracle(tr, h.grid, bound, TailPercentile, h.rcfg)
		if err != nil {
			return nil, err
		}
		// At least ~2 s of simulated time per core so Rubik's rolling
		// feedback settles even for short-request apps (specjbb).
		appReqs := reqs
		if minN := int(2e9 * load / app.MeanServiceNsAtNominal()); appReqs < minN && !opts.Quick {
			appReqs = minN
		}
		for mi, mix := range mixes {
			seed := opts.Seed + int64(mi)*977 + stableSeed(app.Name, load)
			cfg := coloc.ServerConfig{
				App: app, Mix: mix, Load: load,
				RequestsPerCore:   appReqs,
				Seed:              seed,
				BoundNs:           bound,
				Grid:              h.grid,
				Power:             h.power,
				TransitionLatency: h.qcfg.TransitionLatency,
				Interference:      coloc.DefaultInterference(),
			}
			st, err := coloc.RunStaticColocServer(cfg, so.MHz)
			if err != nil {
				return nil, err
			}
			rb, err := coloc.RunRubikColocServer(cfg)
			if err != nil {
				return nil, err
			}
			out.StaticColoc = append(out.StaticColoc, st.TailNs(TailPercentile, Warmup)/bound)
			out.RubikColoc = append(out.RubikColoc, rb.TailNs(TailPercentile, Warmup)/bound)

			for _, obj := range []coloc.HWObjective{coloc.HWThroughput, coloc.HWThroughputPerWatt} {
				cfg.Objective = obj
				res, err := coloc.RunHWServer(cfg)
				if err != nil {
					return nil, err
				}
				ratio := res.TailNs(TailPercentile, Warmup) / bound
				if obj == coloc.HWThroughput {
					out.HWT = append(out.HWT, ratio)
				} else {
					out.HWTPW = append(out.HWTPW, ratio)
				}
			}
			out.Mixes++
		}
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(out.StaticColoc)))
	sort.Sort(sort.Reverse(sort.Float64Slice(out.RubikColoc)))
	sort.Sort(sort.Reverse(sort.Float64Slice(out.HWT)))
	sort.Sort(sort.Reverse(sort.Float64Slice(out.HWTPW)))
	return out, nil
}

// violFrac returns the fraction of mixes violating the bound.
func violFrac(sortedDesc []float64) float64 {
	n := 0
	for _, v := range sortedDesc {
		if v > 1.0 {
			n++
		}
	}
	if len(sortedDesc) == 0 {
		return 0
	}
	return float64(n) / float64(len(sortedDesc))
}

// Render prints distribution summaries per scheme.
func (r *Fig15Result) Render(w io.Writer) {
	fmt.Fprintf(w, "Fig 15 — colocation tail latency relative to bound across %d (app, mix) pairs at 60%% load\n", r.Mixes)
	row := func(name string, d []float64) []string {
		asc := append([]float64(nil), d...)
		sort.Float64s(asc)
		return []string{name,
			fmt.Sprintf("%.2f", d[0]),
			fmt.Sprintf("%.2f", stats.PercentileSorted(asc, 0.9)),
			fmt.Sprintf("%.2f", stats.PercentileSorted(asc, 0.5)),
			fmt.Sprintf("%.2f", asc[0]),
			fmt.Sprintf("%.0f%%", violFrac(d)*100),
		}
	}
	table(w,
		[]string{"scheme", "worst", "p90", "median", "best", "mixes>bound"},
		[][]string{
			row("StaticColoc", r.StaticColoc),
			row("RubikColoc", r.RubikColoc),
			row("HW-T", r.HWT),
			row("HW-TPW", r.HWTPW),
		})
}
