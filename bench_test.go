package rubik_test

// One benchmark per table/figure of the paper's evaluation (quick
// fidelity), plus micro-benchmarks of the primitives on Rubik's hot paths:
// the per-event frequency decision, the periodic target-tail-table
// rebuild, the FFT convolutions behind it, and the event-driven simulator
// itself. Run with:
//
//	go test -bench=. -benchmem
import (
	"io"
	"math/rand"
	"runtime"
	"testing"

	"rubik"
	"rubik/internal/capping"
	"rubik/internal/cluster"
	rubikcore "rubik/internal/core"
	"rubik/internal/experiments"
	"rubik/internal/policy"
	"rubik/internal/queueing"
	"rubik/internal/sim"
	"rubik/internal/stats"
	"rubik/internal/workload"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	opts := experiments.Options{Quick: true, Seed: 42}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := experiments.RunAndRender(id, opts, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// Paper artifacts.
func BenchmarkFig1a(b *testing.B)                { benchExperiment(b, "fig1a") }
func BenchmarkFig1b(b *testing.B)                { benchExperiment(b, "fig1b") }
func BenchmarkFig2a(b *testing.B)                { benchExperiment(b, "fig2a") }
func BenchmarkFig2b(b *testing.B)                { benchExperiment(b, "fig2b") }
func BenchmarkFig2c(b *testing.B)                { benchExperiment(b, "fig2c") }
func BenchmarkTable1(b *testing.B)               { benchExperiment(b, "table1") }
func BenchmarkTable2(b *testing.B)               { benchExperiment(b, "table2") }
func BenchmarkTable3(b *testing.B)               { benchExperiment(b, "table3") }
func BenchmarkFig6(b *testing.B)                 { benchExperiment(b, "fig6") }
func BenchmarkFig7(b *testing.B)                 { benchExperiment(b, "fig7") }
func BenchmarkFig8(b *testing.B)                 { benchExperiment(b, "fig8") }
func BenchmarkFig9(b *testing.B)                 { benchExperiment(b, "fig9") }
func BenchmarkFig10(b *testing.B)                { benchExperiment(b, "fig10") }
func BenchmarkFig11(b *testing.B)                { benchExperiment(b, "fig11") }
func BenchmarkFig12(b *testing.B)                { benchExperiment(b, "fig12") }
func BenchmarkPowerModelValidation(b *testing.B) { benchExperiment(b, "pmv") }
func BenchmarkFig15(b *testing.B)                { benchExperiment(b, "fig15") }
func BenchmarkFig16(b *testing.B)                { benchExperiment(b, "fig16") }
func BenchmarkAblation(b *testing.B)             { benchExperiment(b, "ablation") }
func BenchmarkPegasus(b *testing.B)              { benchExperiment(b, "pegasus") }
func BenchmarkClusterScale(b *testing.B)         { benchExperiment(b, "clusterscale") }
func BenchmarkScenarios(b *testing.B)            { benchExperiment(b, "scenarios") }

// Micro-benchmarks of the hot paths.

// BenchmarkSourceHotPath measures the streaming ingest cycle end to end:
// generate one request from a scenario source, feed it through the core,
// fold the completion into the aggregate histogram. This is the
// per-request cost of a constant-memory run, and the allocs/op guard for
// the whole streaming path — it must report 0 allocs/op (setup and
// geometric ring growth amortize to zero over b.N requests).
func BenchmarkSourceHotPath(b *testing.B) {
	app := workload.Masstree()
	src := workload.NewLoadSource(app, 0.5, b.N, 5)
	cfg := queueing.DefaultConfig()
	cfg.DropCompletions = true
	b.ReportAllocs()
	b.ResetTimer()
	res, err := queueing.RunSource(src, queueing.FixedPolicy{MHz: 2400}, cfg)
	if err != nil {
		b.Fatal(err)
	}
	if res.Served != b.N {
		b.Fatalf("served %d of %d", res.Served, b.N)
	}
}

// BenchmarkTailTableBuild measures one periodic target-tail-table refresh
// at paper parameters (128 buckets, 8 rows, 16 positions) the way the
// controller actually performs it: through a persistent TableBuilder whose
// plans and buffers are warm, so the steady state is allocation-free (the
// paper reports 0.2 ms per update on its testbed). A refresh runs no
// transform: it materializes column 0 straight from the profiles, and
// deeper columns are filled when a decision first reads them.
func BenchmarkTailTableBuild(b *testing.B) { benchTailTableBuild(b, 0) }

// BenchmarkTailTableBuildCol1 is a refresh plus a read of queue position
// 1: the forward transform plus one pruned inverse, what a refresh period
// pays once a decision sees a second request queued.
func BenchmarkTailTableBuildCol1(b *testing.B) { benchTailTableBuild(b, 1) }

// BenchmarkTailTableBuildFull is a refresh plus a read of queue position
// 15, which materializes every column: the deep-queue worst case, and the
// cost of every refresh before columns were filled on first use.
func BenchmarkTailTableBuildFull(b *testing.B) { benchTailTableBuild(b, 15) }

// benchTailTableBuild times a warm refresh followed by one read of queue
// position col, which materializes columns 0..col.
func benchTailTableBuild(b *testing.B, col int) {
	r := rand.New(rand.NewSource(1))
	histC := stats.NewHistogram(4096)
	histM := stats.NewHistogram(4096)
	for i := 0; i < 4096; i++ {
		histC.Push(250e3 * (0.5 + r.Float64()))
		histM.Push(20e3 * (0.5 + r.Float64()))
	}
	tb, err := rubikcore.NewTableBuilder(0.95, 128, 8, 16)
	if err != nil {
		b.Fatal(err)
	}
	refresh := func() {
		tbl, _, err := tb.Rebuild(histC, histM)
		if err != nil {
			b.Fatal(err)
		}
		tbl.Lookup(0, col)
	}
	refresh() // warm buffers
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		refresh()
	}
}

// BenchmarkTailTableBuildOneShot measures the allocate-everything one-shot
// entry point the builder replaced on the periodic path; the gap between
// this and BenchmarkTailTableBuild is what holding a builder buys.
func BenchmarkTailTableBuildOneShot(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	comp := make([]float64, 4096)
	mem := make([]float64, 4096)
	for i := range comp {
		comp[i] = 250e3 * (0.5 + r.Float64())
		mem[i] = 20e3 * (0.5 + r.Float64())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rubikcore.BuildTailTable(comp, mem, 0.95, 128, 8, 16); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHistogramPush measures one profiling ingest on a full window —
// O(1) amortized, versus the O(window) copy the sample slices paid per
// completion once HistoryCap was reached.
func BenchmarkHistogramPush(b *testing.B) {
	r := rand.New(rand.NewSource(14))
	h := stats.NewHistogram(8192)
	for i := 0; i < 8192; i++ {
		h.Push(250e3 * (0.5 + r.Float64()))
	}
	vals := make([]float64, 1024)
	for i := range vals {
		vals[i] = 250e3 * (0.5 + r.Float64())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Push(vals[i&1023])
	}
}

// BenchmarkRubikDecision measures one arrival/completion frequency
// decision (paper Sec. 4.2: "computing each constraint requires few
// instructions").
func BenchmarkRubikDecision(b *testing.B) {
	ctl, err := rubik.NewController(1e6)
	if err != nil {
		b.Fatal(err)
	}
	r := rand.New(rand.NewSource(2))
	comp := make([]float64, 512)
	mem := make([]float64, 512)
	for i := range comp {
		comp[i] = 250e3 * (0.5 + r.Float64())
		mem[i] = 20e3 * (0.5 + r.Float64())
	}
	if err := ctl.Bootstrap(comp, mem); err != nil {
		b.Fatal(err)
	}
	v := queueing.View{
		Now:        1_000_000,
		CurrentMHz: 1600,
		Queue: []queueing.QueuedRequest{
			{Arrival: 100_000}, {Arrival: 400_000}, {Arrival: 900_000},
		},
		HeadElapsedCycles: 120e3,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if f := ctl.OnEvent(v); f <= 0 {
			b.Fatal("bad decision")
		}
	}
}

// BenchmarkEventSim measures the event-driven server simulating masstree
// under Rubik (ns per simulated request ≈ reported time / 2000).
func BenchmarkEventSim(b *testing.B) {
	app := workload.Masstree()
	tr := workload.GenerateAtLoad(app, 0.5, 2000, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctl, err := rubik.NewController(500_000)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := rubik.Simulate(tr, ctl); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClusterSimulate measures the paper-shaped 6-core cluster: one
// shared engine, a fresh Rubik controller per core, JSQ dispatch
// (ns per simulated request ≈ reported time / 12000).
func BenchmarkClusterSimulate(b *testing.B) {
	app := workload.Masstree()
	tr := workload.GenerateAtLoad(app, 0.5*6, 12000, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := rubik.NewCluster(6, rubik.JSQDispatcher(), func(int) (rubik.Policy, error) {
			return rubik.NewController(500_000)
		})
		if _, err := rubik.SimulateCluster(tr, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCappedCluster measures the same 6-core Rubik cluster as
// BenchmarkClusterSimulate under a binding 27 W socket budget with
// waterfill allocation. The per-decision allocator path is allocation-free
// (Domain-owned scratch, O(1) unchanged-demand fast path), so the delta to
// BenchmarkClusterSimulate is the pure coordination cost — the target is
// ≤10% ms/op and no per-decision allocations.
func BenchmarkCappedCluster(b *testing.B) {
	app := workload.Masstree()
	tr := workload.GenerateAtLoad(app, 0.5*6, 12000, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := rubik.NewCappedCluster(6, rubik.JSQDispatcher(), 27, rubik.WaterfillAllocator(),
			func(int) (rubik.Policy, error) {
				return rubik.NewController(500_000)
			})
		if _, err := rubik.SimulateCluster(tr, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// benchFleet runs a 4-socket fleet — per-socket bursty sources behind
// socket-local JSQ, a fresh Rubik controller per core — at a fixed shard
// count. Each socket is the BenchmarkClusterSimulate shape, so on an
// n-core host ms/op should fall toward 1/min(shards, n, 4) of the
// 1-shard cost; on a single-CPU host every shard count costs the same,
// which is itself the measurement that the shard plumbing adds no
// overhead. Fixed-name wrappers (not GOMAXPROCS-derived) keep the
// BENCH_*.json series comparable across runner shapes. tablecache is
// FleetConfig.TableCacheEntries (0 = the fleet default, on), so the
// numbered FleetSimulate series measures what fleet callers get, and the
// Cached/Uncached pair isolates what the rebuild cache is worth.
func benchFleet(b *testing.B, shards, tablecache int) {
	b.Helper()
	const sockets, cores, nPer = 4, 6, 12000
	app := workload.Masstree()
	sc, err := workload.ScenarioByName("bursty")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := rubik.NewFleet(sockets, cores,
			func(s int) rubik.Source {
				return sc.New(app, 0.5*cores, nPer, rubik.ShardSeed(3, s))
			},
			func(int, int) (rubik.Policy, error) { return rubik.NewController(500_000) })
		cfg.Shards = shards
		cfg.TableCacheEntries = tablecache
		cfg.NewDispatcher = func(int) rubik.Dispatcher { return rubik.JSQDispatcher() }
		res, err := rubik.SimulateFleet(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.Served() != sockets*nPer {
			b.Fatalf("served %d of %d", res.Served(), sockets*nPer)
		}
		if tablecache >= 0 && res.TableCache.Lookups() == 0 {
			b.Fatal("rebuild cache never consulted")
		}
	}
}

func BenchmarkFleetSimulate1(b *testing.B)    { benchFleet(b, 1, 0) }
func BenchmarkFleetSimulate2(b *testing.B)    { benchFleet(b, 2, 0) }
func BenchmarkFleetSimulate4(b *testing.B)    { benchFleet(b, 4, 0) }
func BenchmarkFleetSimulateAuto(b *testing.B) { benchFleet(b, 0, 0) }

// benchFleetCapped measures the hierarchical budget path: the flat
// 4-socket fleet shape under a tight waterfilled rack budget with a 5 ms
// epoch cadence, so every epoch runs demand reporting, a tree
// re-allocation and (under skewed demand) cap retargets on top of the
// socket simulations. The delta vs FleetSimulate4 is the cost of
// hierarchical capping itself.
func benchFleetCapped(b *testing.B, shards int) {
	b.Helper()
	const sockets, cores, nPer = 4, 6, 12000
	app := workload.Masstree()
	sc, err := workload.ScenarioByName("bursty")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := rubik.NewFleet(sockets, cores,
			func(s int) rubik.Source {
				load := 0.3 + 0.4*float64(s)/float64(sockets-1)
				return sc.New(app, load*cores, nPer, rubik.ShardSeed(3, s))
			},
			func(int, int) (rubik.Policy, error) { return rubik.NewController(500_000) })
		cfg.Shards = shards
		cfg.NewDispatcher = func(int) rubik.Dispatcher { return rubik.JSQDispatcher() }
		cfg.Hierarchy = &rubik.HierarchySpec{Levels: []rubik.LevelSpec{
			{Name: "rack", Nodes: 1, CapW: 64},
			{Name: "pdu", Nodes: 2, Oversub: 1.25},
		}}
		cfg.Epoch = 5_000_000
		res, err := rubik.SimulateFleet(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.Served() != sockets*nPer {
			b.Fatalf("served %d of %d", res.Served(), sockets*nPer)
		}
		if res.Hierarchy == nil || res.Hierarchy.Reallocations == 0 {
			b.Fatal("hierarchical run never re-allocated")
		}
	}
}

func BenchmarkFleetCapped(b *testing.B) { benchFleetCapped(b, 4) }

// benchFleetTrough is the rebuild cache's before/after shape: a fleet in
// a diurnal-style trough (10% load) under a fine 2 ms control cadence.
// This is the regime where the controller hot path dominates — at 2 ms
// the refresh runs 50x more often than the paper's 100 ms, and rebuilds
// are most of the fleet's wall-clock — and where profile windows sit
// unchanged between ticks (a 10%-load core is usually idle across a
// 2 ms window), so refreshes repeat their exact inputs and the cache
// hits ~33% of lookups. At the default 100 ms cadence and 50% load
// (the FleetSimulate1/2/4 shape) every window gains samples between
// ticks, the hit rate is ~0, and the cache is measurably neutral — see
// EXPERIMENTS.md for both measurements.
func benchFleetTrough(b *testing.B, tablecache int) {
	b.Helper()
	const sockets, cores, nPer = 2, 6, 2000
	app := workload.Masstree()
	sc, err := workload.ScenarioByName("bursty")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := rubik.NewFleet(sockets, cores,
			func(s int) rubik.Source {
				return sc.New(app, 0.1*cores, nPer, rubik.ShardSeed(3, s))
			},
			func(int, int) (rubik.Policy, error) {
				rcfg := rubik.DefaultControllerConfig(500_000)
				rcfg.UpdatePeriod = 2 * sim.Millisecond
				return rubik.NewControllerWithConfig(rcfg)
			})
		cfg.Shards = 2
		cfg.TableCacheEntries = tablecache
		cfg.NewDispatcher = func(int) rubik.Dispatcher { return rubik.JSQDispatcher() }
		res, err := rubik.SimulateFleet(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.Served() != sockets*nPer {
			b.Fatalf("served %d of %d", res.Served(), sockets*nPer)
		}
		if tablecache >= 0 && res.TableCache.Hits == 0 {
			b.Fatal("trough fleet never hit the rebuild cache")
		}
	}
}

func BenchmarkFleetSimulateCached(b *testing.B)   { benchFleetTrough(b, 0) }
func BenchmarkFleetSimulateUncached(b *testing.B) { benchFleetTrough(b, -1) }

// benchWorkers runs the clusterscale sweep at a fixed fan-out, so the
// sequential-vs-parallel speedup of the experiment runner is measurable
// in the bench trajectory (compare ClusterScaleSequential to
// ClusterScaleParallel).
func benchWorkers(b *testing.B, workers int) {
	b.Helper()
	opts := experiments.Options{Quick: true, Seed: 42, Workers: workers}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := experiments.RunAndRender("clusterscale", opts, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkClusterScaleSequential(b *testing.B) { benchWorkers(b, 1) }
func BenchmarkClusterScaleParallel(b *testing.B)   { benchWorkers(b, runtime.GOMAXPROCS(0)) }

// BenchmarkEngine pins the per-event cost of the simulation substrate: 16
// pre-registered handles rescheduling themselves through a populated event
// queue — the engine's sorted small-mode regime. Steady state performs
// zero allocations per event.
func BenchmarkEngine(b *testing.B) {
	benchEngine(b, 16, 97, 13)
}

// BenchmarkEngineDense is the same cycle with 64 live timers over a wide
// horizon — past the small-mode capacity, so every event pays the 4-ary
// heap's O(log n) sifts. No simulator workload reaches this shape (a fleet
// socket peaks below 20 pending events); it bounds the spill path.
func BenchmarkEngineDense(b *testing.B) {
	benchEngine(b, 64, 1500, 97)
}

func benchEngine(b *testing.B, handles int, base, step sim.Time) {
	eng := sim.NewEngine()
	fired := 0
	hs := make([]sim.Handle, handles)
	for i := 0; i < handles; i++ {
		i := i
		hs[i] = eng.Register(func() {
			fired++
			if fired <= b.N-handles {
				// Distinct periods keep the queue busy and unordered.
				eng.RescheduleAfter(hs[i], base+step*sim.Time(i))
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	fired = 0
	for i := range hs {
		eng.Reschedule(hs[i], sim.Time(1+i))
	}
	eng.Run()
	if fired < b.N {
		b.Fatalf("fired %d of %d events", fired, b.N)
	}
}

// BenchmarkCoreEvent pins the per-event cost of the queueing hot path: one
// arrival into an idle core, the policy decision, the completion, and the
// trailing idle decision — the full busy-period cycle with zero
// steady-state allocations (ring slot reuse, handle reschedules, snapshot
// buffer reuse; the pre-sized completion log is charged up front).
func BenchmarkCoreEvent(b *testing.B) {
	eng := sim.NewEngine()
	cfg := queueing.DefaultConfig()
	cfg.ExpectedRequests = b.N
	c, err := queueing.NewCore(eng, queueing.FixedPolicy{MHz: 2400}, cfg)
	if err != nil {
		b.Fatal(err)
	}
	req := workload.Request{ComputeCycles: 240_000, MemTime: 20_000}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req.ID = i
		req.Arrival = eng.Now()
		c.Enqueue(req)
		eng.Run()
	}
	if got := len(c.Completions()); got != b.N {
		b.Fatalf("completed %d of %d", got, b.N)
	}
}

// BenchmarkDispatchJSQ measures one socket-local join-shortest-queue
// pick over a 6-core socket, through the Dispatcher interface the way the
// fleet calls it on every arrival.
func BenchmarkDispatchJSQ(b *testing.B) {
	cores := make([]cluster.CoreState, 6)
	for i := range cores {
		cores[i].Index = i
	}
	var d cluster.Dispatcher = cluster.NewJSQ()
	var req workload.Request
	picked := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cores[i%6].QueueLen = i * 7 & 3
		picked += d.Pick(req, cores)
	}
	if picked < 0 {
		b.Fatal("negative pick")
	}
}

// BenchmarkCompletionMerge measures the fleet's streaming k-way
// completion merge (FleetResult.IterCompletions): one op merges 4 sockets
// x 6 cores x 500 completions, 12,000 in total, in completion order.
func BenchmarkCompletionMerge(b *testing.B) {
	res := mergeFixture(4, 6, 500)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		res.IterCompletions(func(queueing.Completion) bool {
			n++
			return true
		})
		if n != 4*6*500 {
			b.Fatalf("merged %d completions", n)
		}
	}
}

// mergeFixture builds a fleet result whose per-core completion logs are
// sorted by Done with random gaps, as the simulator leaves them; each
// completion's response time is its gap.
func mergeFixture(sockets, cores, perCore int) cluster.FleetResult {
	r := rand.New(rand.NewSource(10))
	var res cluster.FleetResult
	for s := 0; s < sockets; s++ {
		var sock cluster.Result
		for c := 0; c < cores; c++ {
			log := make([]queueing.Completion, perCore)
			var done sim.Time
			for k := range log {
				gap := sim.Time(1 + r.Intn(400_000))
				done += gap
				log[k] = queueing.Completion{ID: k, Done: done, ResponseNs: float64(gap)}
			}
			sock.PerCore = append(sock.PerCore, queueing.Result{Completions: log})
		}
		res.Sockets = append(res.Sockets, sock)
	}
	return res
}

// BenchmarkPooledTail measures the fleet's pooled post-warmup tail
// (FleetResult.TailNs) on a paper-shaped result: 8 sockets x 6 cores x
// 4,000 completions, p99 after a 10% warmup trim. One op counts the
// post-warmup completions, fills one pool and selects the rank, so it
// makes exactly one allocation, the pool.
func BenchmarkPooledTail(b *testing.B) {
	res := mergeFixture(8, 6, 4000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res.TailNs(0.99, 0.1) <= 0 {
			b.Fatal("non-positive pooled tail")
		}
	}
}

// BenchmarkHierarchyRound measures one re-allocation round of the
// two-level budget tree the rackcap shape uses (rack -> 2 PDUs at 1.25x
// oversubscription -> 16 sockets, waterfill at both levels): leaf demands
// in, leaf caps out. The cluster layer runs one per epoch barrier.
func BenchmarkHierarchyRound(b *testing.B) {
	const sockets = 16
	h, err := capping.NewHierarchy(capping.HierarchySpec{Levels: []capping.LevelSpec{
		{Name: "rack", Nodes: 1, CapW: 16 * sockets},
		{Name: "pdu", Nodes: 2, Oversub: 1.25},
	}}, sockets, 4, 40)
	if err != nil {
		b.Fatal(err)
	}
	r := rand.New(rand.NewSource(9))
	demand := make([]float64, sockets)
	for i := range demand {
		demand[i] = 4 + 36*r.Float64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		demand[i&15] = 4 + float64(i%37)
		if caps := h.Reallocate(demand); caps[0] <= 0 {
			b.Fatal("non-positive cap")
		}
	}
}

// BenchmarkReplay measures the analytic FIFO replay the oracles use.
func BenchmarkReplay(b *testing.B) {
	app := workload.Masstree()
	tr := workload.GenerateAtLoad(app, 0.5, 5000, 4)
	freqs := policy.UniformAssignment(len(tr.Requests), 2400)
	cfg := policy.DefaultReplayConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := policy.Replay(tr, freqs, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDynamicOracle measures the strongest oracle's schedule search.
func BenchmarkDynamicOracle(b *testing.B) {
	app := workload.Masstree()
	tr := workload.GenerateAtLoad(app, 0.5, 3000, 5)
	grid := rubik.DefaultGrid()
	cfg := policy.DefaultReplayConfig()
	rep, err := policy.Replay(tr, policy.UniformAssignment(len(tr.Requests), 2400), cfg)
	if err != nil {
		b.Fatal(err)
	}
	bound := rep.TailNs(0.95)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := policy.DynamicOracle(tr, grid, bound, 0.95, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConvolutionPacked runs both 16-position self-convolution
// chains in one packed real-FFT pass — one forward transform, Hermitian
// half-spectrum power steps, size-pruned fused inverses. Compare against
// 2x BenchmarkConvolutionFFTUnplanned, the two naive chains it replaces.
func BenchmarkConvolutionPacked(b *testing.B) {
	r := rand.New(rand.NewSource(6))
	mk := func() stats.PMF {
		p := make([]float64, 128)
		var tot float64
		for i := range p {
			p[i] = r.Float64()
			tot += p[i]
		}
		for i := range p {
			p[i] /= tot
		}
		return stats.PMF{Origin: 0, Width: 1000, P: p}
	}
	c, m := mk(), mk()
	plan, err := stats.NewPackedConvolutionPlan(stats.PackedPlanSizeFor(128, 128, 16))
	if err != nil {
		b.Fatal(err)
	}
	dstC := make([]stats.PMF, 16)
	dstM := make([]stats.PMF, 16)
	if err := plan.IterSelfConvolutionsInto(dstC, dstM, c, m); err != nil { // warm buffers
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := plan.IterSelfConvolutionsInto(dstC, dstM, c, m); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConvolutionFFTUnplanned is the naive chain
// (stats.IterConvolutions: twiddles and buffers recomputed per call), the
// oracle the packed pipeline is validated against and the before side of
// its before/after story.
func BenchmarkConvolutionFFTUnplanned(b *testing.B) {
	r := rand.New(rand.NewSource(6))
	p := make([]float64, 128)
	var tot float64
	for i := range p {
		p[i] = r.Float64()
		tot += p[i]
	}
	for i := range p {
		p[i] /= tot
	}
	d := stats.PMF{Origin: 0, Width: 1000, P: p}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := stats.IterConvolutions(d, d, 16); err != nil {
			b.Fatal(err)
		}
	}
}
