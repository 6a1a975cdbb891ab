package experiments

import (
	"fmt"
	"io"

	"rubik/internal/cluster"
	"rubik/internal/queueing"
	"rubik/internal/workload"
)

// FleetScaleRow is one (sockets, scenario, cap) cell of the sweep.
type FleetScaleRow struct {
	// Sockets x Cores is the fleet shape (Cores per socket).
	Sockets, Cores int
	Scenario       string
	// CapW is the per-socket power budget; 0 = uncapped.
	CapW float64
	// P95Ms / P99Ms are fleet-pooled tail response latencies; BoundMs is
	// the single-core Rubik bound every core targets.
	P95Ms, P99Ms, BoundMs float64
	// MJPerReq is fleet-pooled active core energy per request.
	MJPerReq float64
	// SpreadP95 is max/min per-socket p95 — the socket-to-socket tail
	// inequality that a fleet-level (hierarchical) budget would act on.
	SpreadP95 float64
	Served    int
}

// FleetScaleResult is the EXTENSION experiment "fleetscale": the sharded
// fleet engine run as an experiment — sockets x scenario x per-socket cap
// with a fresh Rubik controller per core, every socket fed an independent
// seed-derived stream behind socket-local JSQ dispatch. Its values are
// invariant to the shard count (the property the cluster tests pin), so
// the rendered table is identical whether the fleet simulated on one
// goroutine or GOMAXPROCS — what sharding buys is recorded as wall-clock
// in EXPERIMENTS.md, not here.
type FleetScaleResult struct {
	App  string
	Rows []FleetScaleRow
}

// FleetScale sweeps fleet size x traffic shape x per-socket cap on
// masstree. Each cell is one RunFleet call sharded across Options.Workers
// event-loop goroutines (0 = GOMAXPROCS); cells run sequentially since
// the fleet itself is the parallel unit.
func FleetScale(opts Options) (*FleetScaleResult, error) {
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
	socketCounts := []int{16, 64}
	nPerCore := opts.requests(app)
	if opts.Quick {
		socketCounts = []int{2, 4}
		nPerCore = 1200
	}
	scenarios := []string{"bursty", "diurnal"}
	caps := []float64{0, 24}

	var rows []FleetScaleRow
	for _, sockets := range socketCounts {
		for _, scn := range scenarios {
			for _, capW := range caps {
				sc, err := workload.ScenarioByName(scn)
				if err != nil {
					return nil, err
				}
				n := nPerCore * cores
				fleetSeed := opts.Seed + stableSeed(scn, load) + int64(sockets)
				fcfg := cluster.FleetConfig{
					Sockets:        sockets,
					CoresPerSocket: cores,
					Shards:         opts.Workers,
					NewSource: func(s int) workload.Source {
						return sc.New(app, load*cores, n, workload.ShardSeed(fleetSeed, s))
					},
					NewDispatcher: func(int) cluster.Dispatcher { return cluster.NewJSQ() },
					Core:          h.qcfg,
					NewPolicy: func(int, int) (queueing.Policy, error) {
						return h.rubik(bound, true)
					},
					CapW: capW,
				}
				res, err := cluster.RunFleet(fcfg)
				if err != nil {
					return nil, fmt.Errorf("experiments: fleetscale %d sockets/%s/%gW: %w", sockets, scn, capW, err)
				}
				minP95, maxP95 := 0.0, 0.0
				for s, sr := range res.Sockets {
					p := sr.TailNs(TailPercentile, Warmup)
					if s == 0 || p < minP95 {
						minP95 = p
					}
					if p > maxP95 {
						maxP95 = p
					}
				}
				spread := 0.0
				if minP95 > 0 {
					spread = maxP95 / minP95
				}
				rows = append(rows, FleetScaleRow{
					Sockets:   sockets,
					Cores:     cores,
					Scenario:  scn,
					CapW:      capW,
					P95Ms:     ms(res.TailNs(TailPercentile, Warmup)),
					P99Ms:     ms(res.TailNs(0.99, Warmup)),
					BoundMs:   ms(bound),
					MJPerReq:  res.EnergyPerRequestJ() * 1e3,
					SpreadP95: spread,
					Served:    res.Served(),
				})
			}
		}
	}
	return &FleetScaleResult{App: app.Name, Rows: rows}, nil
}

// Render writes the sweep table.
func (r *FleetScaleResult) Render(w io.Writer) {
	fmt.Fprintf(w, "fleetscale — %s: sharded fleet, sockets x scenario x per-socket cap (per-core Rubik, socket-local JSQ)\n", r.App)
	header := []string{"sockets", "cores", "scenario", "cap W", "p95 ms", "p99 ms", "tail/bound", "mJ/req", "p95 spread", "served"}
	var rows [][]string
	for _, row := range r.Rows {
		capStr := "-"
		if row.CapW > 0 {
			capStr = fmt.Sprintf("%.0f", row.CapW)
		}
		rows = append(rows, []string{
			fmt.Sprintf("%d", row.Sockets),
			fmt.Sprintf("%dx%d", row.Sockets, row.Cores),
			row.Scenario,
			capStr,
			fmt.Sprintf("%.3f", row.P95Ms),
			fmt.Sprintf("%.3f", row.P99Ms),
			fmt.Sprintf("%.2f", row.P95Ms/row.BoundMs),
			fmt.Sprintf("%.3f", row.MJPerReq),
			fmt.Sprintf("%.2f", row.SpreadP95),
			fmt.Sprintf("%d", row.Served),
		})
	}
	table(w, header, rows)
}
