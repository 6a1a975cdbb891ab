// Command rubikbench runs the hot-path micro-benchmarks of the analytical
// model pipeline and the simulation substrate, and emits machine-readable
// BENCH_<name>.json files, so the perf trajectory (event engine, core
// event cycle, table rebuild, convolution chain, per-event decision,
// cluster simulation) can be tracked across commits without scraping `go
// test -bench` text output.
//
// Usage:
//
//	rubikbench [-out dir] [-bench regexp] [-count n] [-list]
//	rubikbench -baseline dir   compare a fresh run against saved BENCH_*.json
//	rubikbench -baseline dir -gate 15   additionally exit 3 on a >15% ns/op regression
//	                                    or an allocation in a 0-allocs/op baseline
//
// -count n runs every selected benchmark n times and keeps the fastest
// run (minimum ns/op): the minimum estimates the noise floor of a shared
// runner far better than any single run, so CI feeds it to -gate to cut
// scheduling-jitter flakes.
//
// The repo commits a reference run under bench/baseline (see its
// README), so `rubikbench -baseline bench/baseline` diffs the working
// tree against the last recorded trajectory point without hunting for
// CI artifacts; CI runs that diff with -gate 15, annotates the build on
// ns/op regressions and fails it on allocation regressions (allocation
// counts are deterministic, runner timings are not).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"rubik"
	"rubik/internal/capping"
	"rubik/internal/cluster"
	rubikcore "rubik/internal/core"
	"rubik/internal/queueing"
	"rubik/internal/sim"
	"rubik/internal/stats"
	"rubik/internal/workload"
)

// result is the JSON schema of one BENCH_*.json file.
type result struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

func profiledHistograms(n int) (*stats.Histogram, *stats.Histogram) {
	r := rand.New(rand.NewSource(1))
	histC := stats.NewHistogram(n)
	histM := stats.NewHistogram(n)
	for i := 0; i < n; i++ {
		histC.Push(250e3 * (0.5 + r.Float64()))
		histM.Push(20e3 * (0.5 + r.Float64()))
	}
	return histC, histM
}

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

// fleetBench mirrors bench_test.go's benchFleet: a 4-socket fleet of
// 6-core Rubik sockets behind socket-local JSQ at a fixed shard count.
// The names are fixed (FleetSimulate1/2/4, never GOMAXPROCS-derived) so
// the BENCH_*.json series stays comparable across runner shapes; the
// 4-vs-1 ratio is the fleet engine's parallel speedup on that runner,
// and the FleetSimulateCached/Uncached pair (tablecache 0 = fleet
// default, -1 = off) is the rebuild cache's before/after.
func fleetBench(shards, tablecache int) func(b *testing.B) {
	return func(b *testing.B) {
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
}

// cappedFleetBench mirrors bench_test.go's benchFleetCapped: the
// FleetSimulate4 fleet shape with skewed per-socket load under a tight
// waterfilled rack->PDU->socket budget re-allocated every 5 ms, so the
// FleetCapped-vs-FleetSimulate4 delta is the cost of hierarchical
// capping (demand integrals, epoch barriers, tree rounds, retargets).
func cappedFleetBench() func(b *testing.B) {
	return func(b *testing.B) {
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
			cfg.Shards = 4
			cfg.NewDispatcher = func(int) rubik.Dispatcher { return rubik.JSQDispatcher() }
			cfg.Hierarchy = &rubik.HierarchySpec{Levels: []rubik.LevelSpec{
				{Name: "rack", Nodes: 1, CapW: 64},
				{Name: "pdu", Nodes: 2, Oversub: 1.25},
			}}
			cfg.Epoch = 5 * sim.Millisecond
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
}

// troughFleetBench mirrors bench_test.go's benchFleetTrough: a 2-socket
// fleet in a diurnal-style trough (10% load) under a fine 2 ms control
// cadence — the regime where table rebuilds dominate wall-clock and
// profile windows repeat between ticks, so the
// FleetSimulateCached/Uncached delta is what the rebuild cache is worth
// where it matters (at the default 100 ms cadence the hit rate is ~0 and
// the cache is neutral).
func troughFleetBench(tablecache int) func(b *testing.B) {
	return func(b *testing.B) {
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
}

// tailTableBench mirrors bench_test.go's benchTailTableBuild: one warm
// refresh followed by one read of queue position col, which materializes
// columns 0..col — column 0 only and no transform (TailTableBuild), the
// forward transform plus one pruned inverse (TailTableBuildCol1), or
// every column (TailTableBuildFull, the deep-queue worst case).
func tailTableBench(col int) func(b *testing.B) {
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
		refresh()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			refresh()
		}
	}
}

// mergeFixture mirrors bench_test.go's: a fleet result whose per-core
// completion logs are sorted by Done with random gaps.
func mergeFixture(sockets, cores, perCore int) cluster.FleetResult {
	r := rand.New(rand.NewSource(10))
	var res cluster.FleetResult
	for s := 0; s < sockets; s++ {
		var sock cluster.Result
		for c := 0; c < cores; c++ {
			log := make([]queueing.Completion, perCore)
			var done sim.Time
			for k := range log {
				done += sim.Time(1 + r.Intn(400_000))
				log[k] = queueing.Completion{ID: k, Done: done}
			}
			sock.PerCore = append(sock.PerCore, queueing.Result{Completions: log})
		}
		res.Sockets = append(res.Sockets, sock)
	}
	return res
}

// benches mirrors the micro-benchmarks of bench_test.go at paper
// parameters (128 buckets, 8 rows, 16 positions).
var benches = []struct {
	name string
	fn   func(b *testing.B)
}{
	{"TailTableBuild", tailTableBench(0)},
	{"TailTableBuildCol1", tailTableBench(1)},
	{"TailTableBuildFull", tailTableBench(15)},
	{"TailTableBuildOneShot", func(b *testing.B) {
		comp, mem := profiledSamples(4096)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := rubikcore.BuildTailTable(comp, mem, 0.95, 128, 8, 16); err != nil {
				b.Fatal(err)
			}
		}
	}},
	{"ConvolutionPacked", func(b *testing.B) {
		// Both 16-position chains in one packed pass — compare against
		// 2x bench_test.go's ConvolutionFFTUnplanned, the two naive
		// chains it replaces inside a rebuild.
		c := uniformPMF(128)
		m := uniformPMF(128)
		plan, err := stats.NewPackedConvolutionPlan(stats.PackedPlanSizeFor(128, 128, 16))
		if err != nil {
			b.Fatal(err)
		}
		dstC := make([]stats.PMF, 16)
		dstM := make([]stats.PMF, 16)
		if err := plan.IterSelfConvolutionsInto(dstC, dstM, c, m); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := plan.IterSelfConvolutionsInto(dstC, dstM, c, m); err != nil {
				b.Fatal(err)
			}
		}
	}},
	{"HistogramPush", func(b *testing.B) {
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
	}},
	{"RubikDecision", func(b *testing.B) {
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
	}},
	{"SourceHotPath", func(b *testing.B) {
		// Streaming ingest cycle: generate one request from a source, feed
		// it through the core, fold the completion into the aggregate
		// histogram. Guard: 0 allocs/op (constant-memory streaming path).
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
	}},
	{"ClusterSimulate", func(b *testing.B) {
		tr := workload.GenerateAtLoad(workload.Masstree(), 0.5*6, 12000, 3)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cfg := rubik.NewCluster(6, rubik.JSQDispatcher(), func(int) (rubik.Policy, error) {
				return rubik.NewController(500_000)
			})
			if _, err := rubik.SimulateCluster(tr, cfg); err != nil {
				b.Fatal(err)
			}
		}
	}},
	{"CappedCluster", func(b *testing.B) {
		tr := workload.GenerateAtLoad(workload.Masstree(), 0.5*6, 12000, 3)
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
	}},
	{"TableCacheHit", func(b *testing.B) {
		// The rebuild cache's hot hit path — fingerprint both PMFs,
		// verify the full key, copy the table — vs TailTableBuild, the
		// full convolution chain it short-circuits. Guard: 0 allocs/op.
		histC, histM := profiledHistograms(8192)
		tb, err := rubikcore.NewTableBuilder(0.95, 128, 8, 16)
		if err != nil {
			b.Fatal(err)
		}
		tb.Cache = rubikcore.NewTableCache(4)
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
		if tb.CacheHits() == 0 {
			b.Fatal("cached refreshes never hit")
		}
	}},
	{"FleetSimulate1", fleetBench(1, 0)},
	{"FleetSimulate2", fleetBench(2, 0)},
	{"FleetSimulate4", fleetBench(4, 0)},
	{"FleetSimulateCached", troughFleetBench(0)},
	{"FleetSimulateUncached", troughFleetBench(-1)},
	{"FleetCapped", cappedFleetBench()},
	{"Engine", func(b *testing.B) {
		eng := sim.NewEngine()
		const handles = 16
		fired := 0
		hs := make([]sim.Handle, handles)
		for i := 0; i < handles; i++ {
			i := i
			hs[i] = eng.Register(func() {
				fired++
				if fired <= b.N-handles {
					eng.RescheduleAfter(hs[i], sim.Time(97+13*i))
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
	}},
	{"EngineDense", func(b *testing.B) {
		// More live timers than the engine's small-mode capacity, spread
		// over a wide horizon: every event pays the 4-ary heap's O(log n)
		// sifts, a shape no simulator workload reaches.
		eng := sim.NewEngine()
		const handles = 64
		fired := 0
		hs := make([]sim.Handle, handles)
		for i := 0; i < handles; i++ {
			i := i
			hs[i] = eng.Register(func() {
				fired++
				if fired <= b.N-handles {
					eng.RescheduleAfter(hs[i], sim.Time(1500+97*i))
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
	}},
	{"DispatchJSQ", func(b *testing.B) {
		// One socket-local join-shortest-queue pick over 6 cores, through
		// the Dispatcher interface as the fleet calls it.
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
	}},
	{"CompletionMerge", func(b *testing.B) {
		// The fleet's streaming k-way completion merge: one op merges
		// 4 sockets x 6 cores x 500 completions.
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
	}},
	{"HierarchyRound", func(b *testing.B) {
		// One re-allocation round of the rackcap budget tree: rack ->
		// 2 PDUs at 1.25x oversubscription -> 16 sockets, waterfill at
		// both levels.
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
	}},
	{"CoreEvent", func(b *testing.B) {
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
	}},
}

// loadBaseline reads BENCH_<name>.json files from a directory (or one
// file), keyed by benchmark name.
func loadBaseline(path string) (map[string]result, error) {
	st, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	files := []string{path}
	if st.IsDir() {
		files, err = filepath.Glob(filepath.Join(path, "BENCH_*.json"))
		if err != nil {
			return nil, err
		}
		if len(files) == 0 {
			return nil, fmt.Errorf("no BENCH_*.json files in %s", path)
		}
	}
	base := map[string]result{}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r result
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		if r.Name == "" {
			return nil, fmt.Errorf("%s: missing benchmark name", f)
		}
		base[r.Name] = r
	}
	return base, nil
}

// deltaPct formats the relative change from base to cur ("-25.0%").
func deltaPct(base, cur float64) string {
	if base == 0 {
		if cur == 0 {
			return "±0.0%"
		}
		return "new"
	}
	return fmt.Sprintf("%+.1f%%", 100*(cur-base)/base)
}

func main() {
	out := flag.String("out", ".", "directory to write BENCH_<name>.json files to")
	pattern := flag.String("bench", ".", "regexp selecting benchmarks to run")
	list := flag.Bool("list", false, "list benchmark names and exit")
	baseline := flag.String("baseline", "", "BENCH_*.json dir (or one file) to diff the fresh run against")
	gate := flag.Float64("gate", 0, "with -baseline: exit 3 when any benchmark regresses more than this percent in ns/op, or allocates where its baseline does not")
	count := flag.Int("count", 1, "runs per benchmark; the minimum-ns/op run is recorded")
	flag.Parse()
	if *count < 1 {
		fmt.Fprintf(os.Stderr, "rubikbench: -count must be >= 1, got %d\n", *count)
		os.Exit(1)
	}

	re, err := regexp.Compile(*pattern)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rubikbench: bad -bench pattern: %v\n", err)
		os.Exit(1)
	}
	if *list {
		for _, bm := range benches {
			fmt.Println(bm.name)
		}
		return
	}
	var base map[string]result
	if *baseline != "" {
		if base, err = loadBaseline(*baseline); err != nil {
			fmt.Fprintf(os.Stderr, "rubikbench: -baseline: %v\n", err)
			os.Exit(1)
		}
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "rubikbench: %v\n", err)
		os.Exit(1)
	}
	ran := 0
	var regressions, allocRegressions []string
	for _, bm := range benches {
		if !re.MatchString(bm.name) {
			continue
		}
		ran++
		var res result
		for c := 0; c < *count; c++ {
			r := testing.Benchmark(bm.fn)
			// testing.Benchmark discards b.Fatal output and returns a zero
			// result; surface that as a failure instead of emitting NaNs.
			if r.N == 0 {
				fmt.Fprintf(os.Stderr, "rubikbench: benchmark %s failed (zero iterations)\n", bm.name)
				os.Exit(1)
			}
			cur := result{
				Name:        bm.name,
				Iterations:  r.N,
				NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
				AllocsPerOp: r.AllocsPerOp(),
				BytesPerOp:  r.AllocedBytesPerOp(),
			}
			if c == 0 || cur.NsPerOp < res.NsPerOp {
				res = cur
			}
		}
		data, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "rubikbench: %v\n", err)
			os.Exit(1)
		}
		path := filepath.Join(*out, "BENCH_"+bm.name+".json")
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "rubikbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("%-24s %12.0f ns/op %8d B/op %6d allocs/op  -> %s\n",
			bm.name, res.NsPerOp, res.BytesPerOp, res.AllocsPerOp, path)
		if base != nil {
			if b, ok := base[bm.name]; ok {
				fmt.Printf("%-24s %12.0f ns/op (%s) %15d allocs/op (%s)\n",
					"  vs baseline", b.NsPerOp, deltaPct(b.NsPerOp, res.NsPerOp),
					b.AllocsPerOp, deltaPct(float64(b.AllocsPerOp), float64(res.AllocsPerOp)))
				if *gate > 0 && b.NsPerOp > 0 {
					if pct := 100 * (res.NsPerOp - b.NsPerOp) / b.NsPerOp; pct > *gate {
						regressions = append(regressions, fmt.Sprintf(
							"%s: %.0f -> %.0f ns/op (%+.1f%%, gate %.1f%%)",
							bm.name, b.NsPerOp, res.NsPerOp, pct, *gate))
					}
				}
				if *gate > 0 && b.AllocsPerOp == 0 && res.AllocsPerOp > 0 {
					allocRegressions = append(allocRegressions, fmt.Sprintf(
						"%s: 0 -> %d allocs/op (%d B/op)", bm.name, res.AllocsPerOp, res.BytesPerOp))
				}
			} else {
				fmt.Printf("%-24s (not in baseline)\n", "  vs baseline")
			}
		}
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "rubikbench: no benchmarks match %q\n", *pattern)
		os.Exit(1)
	}
	for _, r := range regressions {
		fmt.Fprintf(os.Stderr, "rubikbench: regression: %s\n", r)
	}
	for _, r := range allocRegressions {
		fmt.Fprintf(os.Stderr, "rubikbench: alloc regression: %s\n", r)
	}
	if len(regressions) > 0 || len(allocRegressions) > 0 {
		os.Exit(3)
	}
}
