package experiments

import (
	"fmt"
	"io"

	"rubik/internal/capping"
	"rubik/internal/cluster"
	"rubik/internal/queueing"
	"rubik/internal/workload"
)

// CappingRow is one (scenario, allocator, cap) cell of the sweep.
type CappingRow struct {
	Scenario  string
	Allocator string
	// CapW is the per-socket power budget; 0 = uncapped reference row.
	CapW float64
	// P95Ms / P99Ms are pooled tail response latencies; BoundMs is the
	// single-core Rubik bound every core targets.
	P95Ms, P99Ms, BoundMs float64
	// MJPerReq is pooled active core energy per request.
	MJPerReq float64
	// Throttles counts allocation rounds where the cap was binding;
	// PeakW/AvgW are the largest and time-weighted mean granted power.
	Throttles   int
	PeakW, AvgW float64
	CapExceedMs float64
}

// CappingResult is the EXTENSION experiment "capping": a 6-core cluster of
// per-core Rubik controllers run under a shared socket power budget,
// swept over cap level x allocator strategy x traffic shape. It measures
// the question Rubik alone cannot answer — how much tail latency a fleet
// gives up per watt of cap, and how much of that loss smart budget
// allocation (slack-aware donation, FastCap-style water-filling) buys
// back over a rigid equal split.
type CappingResult struct {
	App   string
	Cores int
	Rows  []CappingRow
}

// Capping sweeps cap x allocator x scenario on masstree with a fresh
// Rubik controller per core behind JSQ dispatch, sharding the independent
// cells across Options.Workers goroutines. Every cell streams its
// scenario source; the uncapped reference row per scenario anchors the
// tail-vs-cap tradeoff.
func Capping(opts Options) (*CappingResult, error) {
	h := newHarness(opts)
	app, err := workload.AppByName("masstree")
	if err != nil {
		return nil, err
	}
	bound, err := h.bound(app)
	if err != nil {
		return nil, err
	}

	const cores = 6
	const load = 0.5
	caps := []float64{36, 27, 18}
	scenarios := []string{"bursty", "diurnal"}
	if opts.Quick {
		caps = []float64{27, 18}
	}

	type cell struct {
		scenario string
		alloc    string // "" = uncapped reference
		capW     float64
	}
	var cells []cell
	for _, sc := range scenarios {
		cells = append(cells, cell{scenario: sc})
		for _, capW := range caps {
			for _, al := range capping.Names() {
				cells = append(cells, cell{scenario: sc, alloc: al, capW: capW})
			}
		}
	}

	rows := make([]CappingRow, len(cells))
	jobs := make([]func() error, len(cells))
	for i, cl := range cells {
		i, cl := i, cl
		jobs[i] = func() error {
			sc, err := workload.ScenarioByName(cl.scenario)
			if err != nil {
				return err
			}
			n := opts.requests(app) * cores
			src := sc.New(app, load*cores, n, opts.Seed+stableSeed(cl.scenario, load))
			ccfg := cluster.Config{
				Cores:      cores,
				Dispatcher: cluster.NewJSQ(),
				Core:       h.qcfg,
				NewPolicy: func(int) (queueing.Policy, error) {
					return h.rubik(bound, true)
				},
			}
			if cl.alloc != "" {
				ccfg.CapW = cl.capW
				if ccfg.Allocator, err = capping.ByName(cl.alloc); err != nil {
					return err
				}
			}
			res, err := cluster.RunSource(src, ccfg)
			if err != nil {
				return fmt.Errorf("experiments: capping %s/%s/%gW: %w", cl.scenario, cl.alloc, cl.capW, err)
			}
			row := CappingRow{
				Scenario:  cl.scenario,
				Allocator: cl.alloc,
				CapW:      cl.capW,
				P95Ms:     ms(res.TailNs(TailPercentile, Warmup)),
				P99Ms:     ms(res.TailNs(0.99, Warmup)),
				BoundMs:   ms(bound),
				MJPerReq:  res.EnergyPerRequestJ() * 1e3,
			}
			for _, d := range res.Capping {
				row.Throttles += d.ThrottleEvents
				row.CapExceedMs += ms(float64(d.CapExceededNs))
				row.AvgW += d.AvgPowerW
				if d.PeakPowerW > row.PeakW {
					row.PeakW = d.PeakPowerW
				}
			}
			rows[i] = row
			return nil
		}
	}
	if err := RunParallel(opts.Workers, jobs...); err != nil {
		return nil, err
	}
	return &CappingResult{App: app.Name, Cores: cores, Rows: rows}, nil
}

// Render writes the sweep table.
func (r *CappingResult) Render(w io.Writer) {
	fmt.Fprintf(w, "capping — %s: %d-core cluster, per-core Rubik under a shared socket budget, cap x allocator x scenario\n",
		r.App, r.Cores)
	header := []string{"scenario", "cap W", "allocator", "p95 ms", "p99 ms", "tail/bound", "mJ/req", "throttles", "peak W", "avg W", "cap-exceeded ms"}
	var rows [][]string
	for _, row := range r.Rows {
		alloc, capW := row.Allocator, fmt.Sprintf("%.0f", row.CapW)
		if alloc == "" {
			alloc, capW = "-", "∞"
		}
		rows = append(rows, []string{
			row.Scenario,
			capW,
			alloc,
			fmt.Sprintf("%.3f", row.P95Ms),
			fmt.Sprintf("%.3f", row.P99Ms),
			fmt.Sprintf("%.2f", row.P95Ms/row.BoundMs),
			fmt.Sprintf("%.3f", row.MJPerReq),
			fmt.Sprintf("%d", row.Throttles),
			fmt.Sprintf("%.1f", row.PeakW),
			fmt.Sprintf("%.1f", row.AvgW),
			fmt.Sprintf("%.3f", row.CapExceedMs),
		})
	}
	table(w, header, rows)
}
