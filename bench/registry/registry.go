// Package registry is the repository's one table of tracked
// micro-benchmarks: every hot-path benchmark body is written here once,
// under the name its bench/baseline/BENCH_<name>.json file records.
//
// Two callers iterate the table. `go test -bench Tracked` runs each entry
// as BenchmarkTracked/<Name> (bench_test.go at the module root), and
// cmd/rubikbench runs each entry through testing.Benchmark and gates it
// against bench/baseline. Both therefore measure the same inputs. The
// paper experiments are benchmarked separately, from
// experiments.Registry(), as BenchmarkExperiment/<id>.
//
// Table parameters follow the paper (Sec. 4.2): 0.95 percentile, 128
// buckets, 8 rows, 16 queue positions.
package registry

import (
	"io"
	"math/rand"
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

// Bench is one tracked benchmark: its BENCH_<Name>.json name and body.
type Bench struct {
	Name string
	Fn   func(*testing.B)
}

// All returns the tracked benchmarks in run order. Names are unique and
// match bench/baseline one-to-one (TestBaselineMatchesRegistry).
func All() []Bench {
	return []Bench{
		{"TailTableBuild", tailTableBuild(0)},
		{"TailTableBuildCol1", tailTableBuild(1)},
		{"TailTableBuildCol3", tailTableBuild(3)},
		{"TailTableBuildFull", tailTableBuild(15)},
		{"TailTableBuildAllRows", tailTableBuildAllRows},
		{"ConvolutionPacked", convolutionPacked},
		{"HistogramPush", histogramPush},
		{"FeedbackTail", feedbackTail},
		{"RubikDecision", rubikDecision},
		{"SourceHotPath", sourceHotPath},
		{"EventSim", eventSim},
		{"ClusterSimulate", clusterSim(0)},
		{"CappedCluster", clusterSim(27)},
		{"TableCacheHit", tableRefresh(true)},
		{"TableCacheMiss", tableRefresh(false)},
		{"FleetSimulate1", fleet{sockets: 4, nPer: 12000, shards: 1, load: 0.5}.run},
		{"FleetSimulate2", fleet{sockets: 4, nPer: 12000, shards: 2, load: 0.5}.run},
		{"FleetSimulate4", fleet{sockets: 4, nPer: 12000, shards: 4, load: 0.5}.run},
		{"FleetSimulateCached", troughFleet(0)},
		{"FleetSimulateUncached", troughFleet(-1)},
		{"FleetCapped", fleet{sockets: 4, nPer: 12000, shards: 4, load: 0.3, skew: 0.4,
			hierarchy: &rubik.HierarchySpec{Levels: []rubik.LevelSpec{
				{Name: "rack", Nodes: 1, CapW: 64},
				{Name: "pdu", Nodes: 2, Oversub: 1.25},
			}},
			epoch: 5 * sim.Millisecond}.run},
		{"Engine", engine},
		{"DispatchJSQ", dispatchJSQ},
		{"PooledTail", pooledTail},
		{"HierarchyRound", hierarchyRound},
		{"CoreEvent", coreEvent},
		{"Replay", replay},
		{"DynamicOracle", dynamicOracle},
		{"ClusterScaleSequential", clusterScaleSequential},
	}
}

// profiledSamples returns n compute and n memory samples, uniform on
// [0.5, 1.5) x 250k cycles and x 20 µs.
func profiledSamples(n int) ([]float64, []float64) {
	r := rand.New(rand.NewSource(1))
	comp := make([]float64, n)
	mem := make([]float64, n)
	for i := range comp {
		comp[i] = 250e3 * (0.5 + r.Float64())
		mem[i] = 20e3 * (0.5 + r.Float64())
	}
	return comp, mem
}

// profiledHistograms returns profiledSamples(n) binned into two
// n-sample profiling histograms.
func profiledHistograms(n int) (*stats.Histogram, *stats.Histogram) {
	comp, mem := profiledSamples(n)
	histC, histM := stats.NewHistogram(n), stats.NewHistogram(n)
	for i := range comp {
		histC.Push(comp[i])
		histM.Push(mem[i])
	}
	return histC, histM
}

// uniformPMF returns an n-bucket PMF with random (seed 6) normalised
// masses.
func uniformPMF(n int) stats.PMF {
	r := rand.New(rand.NewSource(6))
	p := make([]float64, n)
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

// tailTableBuild times one periodic target-tail-table refresh the way the
// controller performs it — through a persistent TableBuilder whose plans
// and buffers are warm, so the steady state is allocation-free (the paper
// reports 0.2 ms per update) — followed by one read of row 0 at queue
// position col, which conditions row 0 and materializes columns 0..col.
// A refresh runs no transform and conditions no row: column 0 comes
// straight from the profiles (TailTableBuild); col 1 adds
// the forward transform pruned to stride 8 and one pruned inverse
// (TailTableBuildCol1); col 3, the deepest column the paper operating
// point reads, refines the forward to stride 4 (TailTableBuildCol3); col
// 15 fills every column, the deep-queue worst case (TailTableBuildFull).
func tailTableBuild(col int) func(*testing.B) {
	return func(b *testing.B) {
		histC, histM := profiledHistograms(4096)
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
}

// tailTableBuildAllRows times a refresh plus column 0 of every row: the
// refresh with every row conditioned, the cost an eager refresh paid and
// a controller whose decisions select every row still pays.
func tailTableBuildAllRows(b *testing.B) {
	histC, histM := profiledHistograms(4096)
	tb, err := rubikcore.NewTableBuilder(0.95, 128, 8, 16)
	if err != nil {
		b.Fatal(err)
	}
	refresh := func() {
		tbl, _, err := tb.Rebuild(histC, histM)
		if err != nil {
			b.Fatal(err)
		}
		for row := 0; row < tbl.Rows(); row++ {
			tbl.Lookup(row, 0)
		}
	}
	refresh() // warm buffers
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		refresh()
	}
}

// convolutionPacked runs both 16-position self-convolution chains in one
// packed real-FFT pass: forward transforms pruned to each row's stride
// (8, 4, 2, then 1 as the rows grow), Hermitian half-spectrum power steps
// over the computed bins, size-pruned fused inverses: Start, then RowInto
// for every row.
func convolutionPacked(b *testing.B) {
	c := uniformPMF(128)
	m := uniformPMF(128)
	plan, err := stats.NewPackedConvolutionPlan(stats.PackedPlanSizeFor(128, 128, 16))
	if err != nil {
		b.Fatal(err)
	}
	dstC := make([]stats.PMF, 16)
	dstM := make([]stats.PMF, 16)
	pass := func() {
		if err := plan.Start(c, m, len(dstC)); err != nil {
			b.Fatal(err)
		}
		for i := range dstC {
			if err := plan.RowInto(i, &dstC[i], &dstM[i]); err != nil {
				b.Fatal(err)
			}
		}
	}
	pass() // warm buffers
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pass()
	}
}

// histogramPush times one profiling ingest into a full 8192-sample
// window: O(1) amortized.
func histogramPush(b *testing.B) {
	r := rand.New(rand.NewSource(14))
	histC, _ := profiledHistograms(8192)
	vals := make([]float64, 1024)
	for i := range vals {
		vals[i] = 250e3 * (0.5 + r.Float64())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		histC.Push(vals[i&1023])
	}
}

// feedbackTail times one feedback-tail measurement the way a trough-cadence
// Rubik core takes it: a 1 s rolling window holding ~300 response
// latencies, into which 2 completions arrive (and from which 2 expire)
// between successive p95 reads.
func feedbackTail(b *testing.B) {
	const window, live = int64(sim.Second), 300
	step := window / live
	r := rand.New(rand.NewSource(15))
	vals := make([]float64, 1024)
	for i := range vals {
		vals[i] = 500e3 * r.ExpFloat64()
	}
	w := stats.NewRollingWindow(window)
	var now int64
	for i := 0; i < live; i++ {
		now += step
		w.Add(now, vals[i&1023])
	}
	w.Percentile(0.95)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := 0; k < 2; k++ {
			now += step
			w.Add(now, vals[(2*i+k)&1023])
		}
		w.Percentile(0.95)
	}
}

// rubikDecision times one arrival/completion frequency decision (paper
// Sec. 4.2: "computing each constraint requires few instructions").
func rubikDecision(b *testing.B) {
	ctl, err := rubik.NewController(1e6)
	if err != nil {
		b.Fatal(err)
	}
	comp, mem := profiledSamples(512)
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
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if f := ctl.OnEvent(v); f <= 0 {
			b.Fatal("bad decision")
		}
	}
}

// sourceHotPath times the streaming ingest cycle end to end: generate one
// request from a source, feed it through the core, fold the completion
// into the aggregate histogram. It is the per-request cost of a
// constant-memory run and must report 0 allocs/op (setup and geometric
// ring growth amortize to zero over b.N requests).
func sourceHotPath(b *testing.B) {
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

// eventSim times the event-driven server simulating masstree under Rubik
// (ns per simulated request ≈ ns/op / 2000).
func eventSim(b *testing.B) {
	tr := workload.GenerateAtLoad(workload.Masstree(), 0.5, 2000, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctl, err := rubik.NewController(500_000)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := rubik.Simulate(rubik.TraceSource(tr), ctl, rubik.DefaultServerConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

// clusterSim times the paper-shaped 6-core cluster: one shared engine, a
// fresh Rubik controller per core, JSQ dispatch (ns per simulated
// request ≈ ns/op / 12000). capW > 0 budgets the socket at capW watts
// with waterfill allocation (CappedCluster at a binding 27 W); the
// per-decision allocator path allocates nothing, so the delta to
// ClusterSimulate is the pure coordination cost.
func clusterSim(capW float64) func(*testing.B) {
	return func(b *testing.B) {
		tr := workload.GenerateAtLoad(workload.Masstree(), 0.5*6, 12000, 3)
		newPolicy := func(int) (rubik.Policy, error) { return rubik.NewController(500_000) }
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cfg := rubik.NewCluster(6, rubik.JSQDispatcher(), newPolicy)
			if capW > 0 {
				cfg.CapW = capW
				cfg.Allocator = rubik.WaterfillAllocator()
			}
			if _, err := rubik.SimulateCluster(rubik.TraceSource(tr), cfg); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// tableRefresh times a warm refresh of unchanged profiles, with the
// rebuild cache attached (TableCacheHit: fingerprint both PMFs, verify
// the full key, copy the table in place) or detached (TableCacheMiss: the
// refresh the hit short-circuits). Both must report 0 allocs/op.
func tableRefresh(cached bool) func(*testing.B) {
	return func(b *testing.B) {
		histC, histM := profiledHistograms(8192)
		tb, err := rubikcore.NewTableBuilder(0.95, 128, 8, 16)
		if err != nil {
			b.Fatal(err)
		}
		if cached {
			tb.Cache = rubikcore.NewTableCache(4)
		}
		if _, _, err := tb.Rebuild(histC, histM); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := tb.Rebuild(histC, histM); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if cached && tb.CacheHits() == 0 {
			b.Fatal("cached refreshes never hit")
		}
	}
}

// fleet is the one fleet benchmark shape: sockets x 6 Rubik cores behind
// socket-local JSQ, socket s fed nPer bursty masstree requests at
// load+skew*s/(sockets-1) of its cores' capacity, run at a fixed shard
// count. The names carry the shard count (FleetSimulate1/2/4, never
// GOMAXPROCS-derived) so the series stays comparable across runner
// shapes; on an n-core host FleetSimulate ms/op falls toward
// 1/min(shards, n, 4) of the 1-shard cost.
type fleet struct {
	sockets, nPer, shards int
	load, skew            float64
	// updatePeriod is the controllers' table refresh period; 0 keeps the
	// paper's 100 ms.
	updatePeriod sim.Time
	// tableCache is FleetConfig.TableCacheEntries: 0 is the fleet default
	// (on), -1 off. With the cache on, an uncapped run must consult it,
	// and wantHits additionally requires a hit.
	tableCache int
	wantHits   bool
	// hierarchy, when set, budgets the fleet through that tree,
	// re-allocated every epoch; the run must re-allocate at least once.
	hierarchy *rubik.HierarchySpec
	epoch     sim.Time
}

// troughFleet is the rebuild cache's before/after shape
// (FleetSimulateCached/Uncached): a 2-socket fleet in a diurnal-style
// trough (10% load) under a 2 ms control cadence, where rebuilds are most
// of the wall-clock and idle cores' profile windows repeat between ticks,
// so refreshes can hit the cache.
func troughFleet(tableCache int) func(*testing.B) {
	return fleet{sockets: 2, nPer: 2000, shards: 2, load: 0.1,
		updatePeriod: 2 * sim.Millisecond, tableCache: tableCache, wantHits: tableCache >= 0}.run
}

func (f fleet) run(b *testing.B) {
	const cores = 6
	app := workload.Masstree()
	sc, err := workload.ScenarioByName("bursty")
	if err != nil {
		b.Fatal(err)
	}
	newPolicy := func(int, int) (rubik.Policy, error) {
		ctl := rubik.DefaultControllerConfig(500_000)
		if f.updatePeriod > 0 {
			ctl.UpdatePeriod = f.updatePeriod
		}
		return rubik.NewControllerWithConfig(ctl)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := rubik.NewFleet(f.sockets, cores,
			func(s int) rubik.Source {
				load := f.load + f.skew*float64(s)/float64(f.sockets-1)
				return sc.New(app, load*cores, f.nPer, rubik.ShardSeed(3, s))
			},
			newPolicy)
		cfg.Shards = f.shards
		cfg.TableCacheEntries = f.tableCache
		cfg.NewDispatcher = func(int) rubik.Dispatcher { return rubik.JSQDispatcher() }
		cfg.Hierarchy = f.hierarchy
		cfg.Epoch = f.epoch
		res, err := rubik.SimulateFleet(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.Served() != f.sockets*f.nPer {
			b.Fatalf("served %d of %d", res.Served(), f.sockets*f.nPer)
		}
		switch {
		case f.hierarchy != nil && (res.Hierarchy == nil || res.Hierarchy.Reallocations == 0):
			b.Fatal("hierarchical run never re-allocated")
		case f.hierarchy == nil && f.tableCache >= 0 && res.TableCache.Lookups() == 0:
			b.Fatal("rebuild cache never consulted")
		case f.wantHits && res.TableCache.Hits == 0:
			b.Fatal("fleet never hit the rebuild cache")
		}
	}
}

// engine times the per-event cost of the simulation substrate: 16
// pre-registered timers rescheduling themselves 97+13*i ns ahead through
// the engine's sorted pending array, about the population of a 6-core
// socket (at most 3·6+2 pending events). Steady state allocates nothing.
func engine(b *testing.B) {
	const (
		handles             = 16
		base, step sim.Time = 97, 13
	)
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

// dispatchJSQ times one socket-local join-shortest-queue pick over a
// 6-core socket, through the Dispatcher interface as the fleet calls it
// on every arrival.
func dispatchJSQ(b *testing.B) {
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

// pooledTail times the fleet's pooled post-warmup tail
// (FleetResult.TailNs) on a paper-shaped result: 8 sockets x 6 cores x
// 4,000 completions, p99 after a 10% warmup trim. An op selects straight
// from the logs: it allocates the radix counters and the rank's bucket,
// never a pool of every response.
func pooledTail(b *testing.B) {
	res := mergeFixture(8, 6, 4000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res.TailNs(0.99, 0.1) <= 0 {
			b.Fatal("non-positive pooled tail")
		}
	}
}

// hierarchyRound times one re-allocation round of the rackcap budget
// tree (rack -> 2 PDUs at 1.25x oversubscription -> 16 sockets,
// waterfill at both levels): leaf demands in, leaf caps out. The cluster
// layer runs one per epoch barrier.
func hierarchyRound(b *testing.B) {
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

// coreEvent times the queueing hot path: one arrival into an idle core,
// the policy decision, the completion and the trailing idle decision —
// the full busy-period cycle, with zero steady-state allocations (the
// completion arena, sized for b.N records, is charged up front).
func coreEvent(b *testing.B) {
	eng := sim.NewEngine()
	log := queueing.NewArena(b.N, 1)
	c, err := queueing.NewCore(eng, queueing.FixedPolicy{MHz: 2400}, queueing.DefaultConfig(), log)
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
	if got := len(c.Finalize().Completions); got != b.N {
		b.Fatalf("completed %d of %d", got, b.N)
	}
}

// replay times the analytic FIFO replay the oracles use.
func replay(b *testing.B) {
	tr := workload.GenerateAtLoad(workload.Masstree(), 0.5, 5000, 4)
	freqs := policy.UniformAssignment(len(tr.Requests), 2400)
	cfg := policy.DefaultReplayConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := policy.Replay(tr, freqs, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// dynamicOracle times the strongest oracle's schedule search.
func dynamicOracle(b *testing.B) {
	tr := workload.GenerateAtLoad(workload.Masstree(), 0.5, 3000, 5)
	cfg := policy.DefaultReplayConfig()
	rep, err := policy.Replay(tr, policy.UniformAssignment(len(tr.Requests), 2400), cfg)
	if err != nil {
		b.Fatal(err)
	}
	bound := rep.TailNs(0.95)
	grid := rubik.DefaultGrid()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := policy.DynamicOracle(tr, grid, bound, 0.95, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// clusterScaleSequential runs the quick clusterscale sweep on one worker:
// the experiment runner's sequential cost. BenchmarkExperiment/
// clusterscale runs the same sweep at the default fan-out.
func clusterScaleSequential(b *testing.B) {
	opts := experiments.Options{Quick: true, Seed: 42, Workers: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := experiments.RunAndRender("clusterscale", opts, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}
