package experiments

import (
	"fmt"
	"io"

	"rubik/internal/capping"
	"rubik/internal/cluster"
	"rubik/internal/queueing"
	"rubik/internal/sim"
	"rubik/internal/workload"
)

// FleetCapRow is one (scenario, rack cap, oversubscription, mode) cell.
type FleetCapRow struct {
	Sockets, Cores int
	Scenario       string
	// RackW is the rack-level budget; Oversub is the PDU oversubscription
	// ratio (each PDU may promise its children Oversub x its own grant).
	RackW   float64
	Oversub float64
	// Mode is "flat" (the rack budget statically pre-divided into fixed
	// per-socket caps) or "hier" (rack->PDU->socket waterfill tree
	// re-allocating on demand every epoch).
	Mode                  string
	P95Ms, P99Ms, BoundMs float64
	MJPerReq              float64
	// SpreadP95 is max/min per-socket p95: hierarchical budgets exist to
	// shrink this under skewed demand.
	SpreadP95 float64
	// Throttles sums allocation rounds that clipped at least one core;
	// ExceedMs sums simulated time infeasible domains spent over budget.
	Throttles int
	ExceedMs  float64
	// CapChanges counts socket budget retargets (0 in flat mode).
	CapChanges int
	Served     int
}

// FleetCapResult is the EXTENSION experiment "fleetcap": hierarchical
// rack->PDU->socket power budgets versus flat static division, on a fleet
// with deliberately skewed per-socket demand (socket s runs at
// 0.3+0.4·s/(n-1) load per core). Flat mode gives every socket
// RackW·Oversub/sockets forever; hier mode lets the budget tree move
// watts toward demand at every epoch. Both enforce the same rack budget,
// so tail and spread differences are pure allocation quality.
type FleetCapResult struct {
	App  string
	Rows []FleetCapRow
}

// FleetCap sweeps scenario x rack budget x oversubscription x flat/hier
// on masstree. Values are shard-invariant (the property the cluster tests
// pin), so Options.Workers changes wall-clock only.
func FleetCap(opts Options) (*FleetCapResult, error) {
	h := newHarness(opts)
	app, err := workload.AppByName("masstree")
	if err != nil {
		return nil, err
	}
	bound, err := h.bound(app)
	if err != nil {
		return nil, err
	}

	const cores = 4
	sockets := 8
	nPerCore := opts.requests(app)
	if opts.Quick {
		sockets = 4
		nPerCore = 1200
	}
	const epoch = 5 * sim.Time(1_000_000) // 5 ms re-allocation cadence
	scenarios := []string{"bursty", "diurnal"}
	// Tight: well under the fleet's max draw, so allocation quality shows.
	// Roomy: binds only during bursts.
	rackCaps := []float64{10 * float64(sockets), 16 * float64(sockets)}
	oversubs := []float64{1, 1.25}

	var rows []FleetCapRow
	for _, scn := range scenarios {
		sc, err := workload.ScenarioByName(scn)
		if err != nil {
			return nil, err
		}
		for _, rackW := range rackCaps {
			for _, oversub := range oversubs {
				for _, mode := range []string{"flat", "hier"} {
					n := nPerCore * cores
					fleetSeed := opts.Seed + stableSeed(scn, oversub) + int64(sockets)
					fcfg := cluster.FleetConfig{
						Sockets:        sockets,
						CoresPerSocket: cores,
						Shards:         opts.Workers,
						NewSource: func(s int) workload.Source {
							load := 0.3 + 0.4*float64(s)/float64(sockets-1)
							return sc.New(app, load*cores, n, workload.ShardSeed(fleetSeed, s))
						},
						NewDispatcher: func(int) cluster.Dispatcher { return cluster.NewJSQ() },
						Core:          h.qcfg,
						NewPolicy: func(int, int) (queueing.Policy, error) {
							return h.rubik(bound, true)
						},
					}
					if mode == "flat" {
						fcfg.CapW = rackW * oversub / float64(sockets)
					} else {
						fcfg.Hierarchy = &capping.HierarchySpec{Levels: []capping.LevelSpec{
							{Name: "rack", Nodes: 1, CapW: rackW},
							{Name: "pdu", Nodes: 2, Oversub: oversub},
						}}
						fcfg.Epoch = epoch
					}
					res, err := cluster.RunFleet(fcfg)
					if err != nil {
						return nil, fmt.Errorf("experiments: fleetcap %s/%gW/%gx/%s: %w", scn, rackW, oversub, mode, err)
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
					throttles := 0
					var exceedNs sim.Time
					for _, ds := range res.Capping() {
						throttles += ds.ThrottleEvents
						exceedNs += ds.CapExceededNs
					}
					capChanges := 0
					if res.Hierarchy != nil {
						capChanges = res.Hierarchy.LeafCapChanges
					}
					rows = append(rows, FleetCapRow{
						Sockets:    sockets,
						Cores:      cores,
						Scenario:   scn,
						RackW:      rackW,
						Oversub:    oversub,
						Mode:       mode,
						P95Ms:      ms(res.TailNs(TailPercentile, Warmup)),
						P99Ms:      ms(res.TailNs(0.99, Warmup)),
						BoundMs:    ms(bound),
						MJPerReq:   res.EnergyPerRequestJ() * 1e3,
						SpreadP95:  spread,
						Throttles:  throttles,
						ExceedMs:   float64(exceedNs) / 1e6,
						CapChanges: capChanges,
						Served:     res.Served(),
					})
				}
			}
		}
	}
	return &FleetCapResult{App: app.Name, Rows: rows}, nil
}

// Render writes the sweep table.
func (r *FleetCapResult) Render(w io.Writer) {
	fmt.Fprintf(w, "fleetcap — %s: rack->PDU->socket budgets vs flat division, skewed demand (per-core Rubik, socket-local JSQ)\n", r.App)
	header := []string{"fleet", "scenario", "rack W", "oversub", "mode", "p95 ms", "p99 ms", "tail/bound", "mJ/req", "p95 spread", "throttles", "exceed ms", "cap chg", "served"}
	var rows [][]string
	for _, row := range r.Rows {
		capChg := "-"
		if row.Mode == "hier" {
			capChg = fmt.Sprintf("%d", row.CapChanges)
		}
		rows = append(rows, []string{
			fmt.Sprintf("%dx%d", row.Sockets, row.Cores),
			row.Scenario,
			fmt.Sprintf("%.0f", row.RackW),
			fmt.Sprintf("%.2f", row.Oversub),
			row.Mode,
			fmt.Sprintf("%.3f", row.P95Ms),
			fmt.Sprintf("%.3f", row.P99Ms),
			fmt.Sprintf("%.2f", row.P95Ms/row.BoundMs),
			fmt.Sprintf("%.3f", row.MJPerReq),
			fmt.Sprintf("%.2f", row.SpreadP95),
			fmt.Sprintf("%d", row.Throttles),
			fmt.Sprintf("%.1f", row.ExceedMs),
			capChg,
			fmt.Sprintf("%d", row.Served),
		})
	}
	table(w, header, rows)
}
