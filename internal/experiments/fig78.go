package experiments

import (
	"fmt"
	"io"
	"sort"

	"rubik/internal/policy"
	"rubik/internal/stats"
	"rubik/internal/workload"
)

// FigCDFResult reproduces Figs. 7 and 8: at 50% load, the response-latency
// CDFs of StaticOracle, AdrenalineOracle and Rubik against the tail bound,
// plus Rubik's frequency residency histogram. Rubik delays short requests
// (CDF low end shifts right) without crossing the bound.
type FigCDFResult struct {
	App         string
	BoundMs     float64
	Percentiles []float64
	// LatencyMs[scheme][k] is the latency at Percentiles[k].
	StaticMs     []float64
	AdrenalineMs []float64
	RubikMs      []float64
	// Residency[i] is Rubik's fraction of active time at GridMHz[i].
	GridMHz   []int
	Residency []float64
}

// Fig7 characterizes masstree (tightly clustered service times).
func Fig7(opts Options) (*FigCDFResult, error) {
	return figCDF(opts, workload.Masstree())
}

// Fig8 characterizes xapian (variable service times: the CDF shift is less
// pronounced and frequencies more conservative).
func Fig8(opts Options) (*FigCDFResult, error) {
	return figCDF(opts, workload.Xapian())
}

func figCDF(opts Options, app workload.LCApp) (*FigCDFResult, error) {
	h := newHarness(opts)
	bound, err := h.bound(app)
	if err != nil {
		return nil, err
	}
	tr := h.trace(app, 0.5)
	so, err := policy.StaticOracle(tr, h.grid, bound, TailPercentile, h.rcfg)
	if err != nil {
		return nil, err
	}
	ad, err := policy.AdrenalineOracle(tr, h.grid, bound, TailPercentile, h.rcfg)
	if err != nil {
		return nil, err
	}
	rb, err := h.runRubik(tr, bound, true)
	if err != nil {
		return nil, err
	}

	out := &FigCDFResult{
		App:         app.Name,
		BoundMs:     ms(bound),
		Percentiles: []float64{0.05, 0.10, 0.25, 0.50, 0.75, 0.90, 0.95, 0.99},
		GridMHz:     h.grid.Steps(),
		Residency:   rb.Residency,
	}
	// at sorts vals, a fresh latency slice, in place.
	at := func(vals []float64) []float64 {
		sort.Float64s(vals)
		var row []float64
		for _, p := range out.Percentiles {
			row = append(row, ms(stats.PercentileSorted(vals, p)))
		}
		return row
	}
	out.StaticMs = at(so.Result.ResponsesNs())
	out.AdrenalineMs = at(ad.Result.ResponsesNs())
	out.RubikMs = at(rb.Responses(Warmup))
	return out, nil
}

// Render prints the CDF samples and the frequency histogram.
func (r *FigCDFResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Fig 7/8 — %s response latency CDF at 50%% load (tail bound %.3f ms)\n", r.App, r.BoundMs)
	var rows [][]string
	for k, p := range r.Percentiles {
		rows = append(rows, []string{
			fmt.Sprintf("p%.0f", p*100),
			fmt.Sprintf("%.3f", r.StaticMs[k]),
			fmt.Sprintf("%.3f", r.AdrenalineMs[k]),
			fmt.Sprintf("%.3f", r.RubikMs[k]),
		})
	}
	table(w, []string{"pct", "StaticOracle(ms)", "AdrenalineOracle(ms)", "Rubik(ms)"}, rows)
	fmt.Fprintln(w, "Rubik frequency residency (fraction of active time):")
	var fr [][]string
	for i, f := range r.GridMHz {
		if r.Residency[i] < 0.001 {
			continue
		}
		fr = append(fr, []string{
			fmt.Sprintf("%.1f GHz", float64(f)/1000),
			fmt.Sprintf("%.3f", r.Residency[i]),
		})
	}
	table(w, []string{"freq", "fraction"}, fr)
}
