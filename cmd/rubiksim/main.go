// Command rubiksim regenerates the tables and figures of the Rubik paper
// (Kasture et al., MICRO 2015) from the reproduction's simulators.
//
// Usage:
//
//	rubiksim -list                 list the available experiments
//	rubiksim -exp fig6             run one experiment at paper fidelity
//	rubiksim -exp all -quick       smoke-run everything with small traces
//	rubiksim -exp fig9 -out fig9.txt
//	rubiksim -cap 24 -allocator waterfill    one capped 6-core cluster run
//	rubiksim -sockets 64 -shards 4           sharded fleet run (per-core Rubik)
//	rubiksim -sockets 64 -rackcap 640 -pdus 4 -oversub 1.25 -epoch 5
//	                                         hierarchical rack->PDU->socket budgets
//	rubiksim -exp fig6 -cpuprofile cpu.pprof -memprofile mem.pprof
//
// -cpuprofile/-memprofile write pprof profiles covering the whole run
// (inspect with `go tool pprof`); -tablecache sizes the rebuild cache of
// fleet runs, capped or not (one per shard, one per socket under
// -rackcap; -1 disables it, 0 keeps the default).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"rubik"
	"rubik/internal/experiments"
)

// runCapped performs a single capped 6-core cluster run (per-core Rubik,
// JSQ dispatch, bursty traffic) and prints the pooled tails plus the
// power-domain accounting — the quick way to poke at a cap level and
// allocator without running the full capping experiment sweep.
func runCapped(w io.Writer, capW float64, allocator string, quick bool, seed int64) error {
	alloc, err := rubik.AllocatorByName(allocator)
	if err != nil {
		return err
	}
	app, err := rubik.AppByName("masstree")
	if err != nil {
		return err
	}
	bound, err := rubik.TailBound(app, seed)
	if err != nil {
		return err
	}
	const cores = 6
	n := app.Requests * cores
	if quick && n > 2400*cores {
		n = 2400 * cores
	}
	src, err := rubik.NewScenarioSource("bursty", app, 0.5*cores, n, seed)
	if err != nil {
		return err
	}
	cfg := rubik.NewCluster(cores, rubik.JSQDispatcher(),
		func(int) (rubik.Policy, error) { return rubik.NewController(bound) })
	cfg.CapW = capW
	cfg.Allocator = alloc
	res, err := rubik.SimulateCluster(src, cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "capped cluster: %d cores, %s, cap %.1f W, bursty masstree, %d requests\n",
		cores, alloc.Name(), capW, res.Served())
	fmt.Fprintf(w, "  p95 %.3f ms  p99 %.3f ms  (bound %.3f ms)  %.3f mJ/request\n",
		res.TailNs(0.95, 0.1)/1e6, res.TailNs(0.99, 0.1)/1e6, bound/1e6,
		res.EnergyPerRequestJ()*1e3)
	d := res.Capping
	fmt.Fprintf(w, "  socket domain (%d cores): %d rounds, %d throttled, peak %.1f W, avg %.1f W, cap exceeded %.3f ms\n",
		cores, d.Rounds, d.ThrottleEvents, d.PeakPowerW, d.AvgPowerW, float64(d.CapExceededNs)/1e6)
	return nil
}

// hierOpts carries the -rackcap/-pducap/-pdus/-oversub/-halloc/-epoch
// flags; RackW == 0 means flat (non-hierarchical) capping.
type hierOpts struct {
	RackW, PDUW float64
	PDUs        int
	Oversub     float64
	Alloc       string
	EpochMs     float64
}

// spec assembles the budget tree: one rack node, plus a PDU level when
// -pdus is set.
func (h hierOpts) spec() (*rubik.HierarchySpec, error) {
	alloc, err := rubik.LevelAllocatorByName(h.Alloc)
	if err != nil {
		return nil, err
	}
	levels := []rubik.LevelSpec{{Name: "rack", Nodes: 1, CapW: h.RackW, Alloc: alloc}}
	if h.PDUs > 0 {
		levels = append(levels, rubik.LevelSpec{
			Name: "pdu", Nodes: h.PDUs, CapW: h.PDUW, Oversub: h.Oversub, Alloc: alloc,
		})
	}
	return &rubik.HierarchySpec{Levels: levels}, nil
}

// runFleet simulates a multi-socket fleet with a fresh Rubik controller
// per core and socket-local JSQ dispatch, sharded across event-loop
// goroutines. Everything written to w is deterministic and invariant to
// both the shard count and the rebuild-cache setting — CI diffs the
// -shards 1 vs -shards 2 and cached vs -tablecache=-1 outputs
// byte-for-byte — so timing, the resolved shard count and the cache
// statistics go to stderr.
func runFleet(w io.Writer, sockets, shards, tablecache int, capW float64, allocator string, hier hierOpts, quick bool, seed int64) error {
	app, err := rubik.AppByName("masstree")
	if err != nil {
		return err
	}
	bound, err := rubik.TailBound(app, seed)
	if err != nil {
		return err
	}
	const cores = 6
	nPer := app.Requests * cores
	if quick && nPer > 1200*cores {
		nPer = 1200 * cores
	}
	cfg := rubik.NewFleet(sockets, cores,
		func(s int) rubik.Source {
			src, err := rubik.NewScenarioSource("bursty", app, 0.5*cores, nPer, rubik.ShardSeed(seed, s))
			if err != nil {
				panic(err) // scenario name is fixed above
			}
			return src
		},
		func(int, int) (rubik.Policy, error) { return rubik.NewController(bound) })
	cfg.Shards = shards
	cfg.TableCacheEntries = tablecache
	cfg.NewDispatcher = func(int) rubik.Dispatcher { return rubik.JSQDispatcher() }
	if capW > 0 {
		alloc, err := rubik.AllocatorByName(allocator)
		if err != nil {
			return err
		}
		cfg.CapW = capW
		cfg.Allocator = alloc
	}
	if hier.RackW > 0 {
		spec, err := hier.spec()
		if err != nil {
			return err
		}
		cfg.Hierarchy = spec
		cfg.Epoch = rubik.Time(hier.EpochMs * 1e6)
	}

	start := time.Now()
	res, err := rubik.SimulateFleet(cfg)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)

	fmt.Fprintf(w, "fleet: %d sockets x %d cores, bursty masstree, jsq dispatch, %d requests/socket\n",
		sockets, cores, nPer)
	if capW > 0 {
		fmt.Fprintf(w, "  per-socket cap %.1f W (%s)\n", capW, cfg.Allocator.Name())
	}
	if hs := res.Hierarchy; hs != nil {
		// All hierarchy statistics are shard-invariant, but the CI flat-vs-
		// degenerate-tree diff filters these lines out, so keep the prefix.
		fmt.Fprintf(w, "  hier: %d reallocation rounds (every %.1f ms), %d socket cap changes\n",
			hs.Reallocations, hier.EpochMs, hs.LeafCapChanges)
		for _, ls := range hs.Levels {
			fmt.Fprintf(w, "  hier level %-7s %3d nodes (%s): grants min %.1f / avg %.1f / max %.1f W, %d throttled rounds\n",
				ls.Name, ls.Nodes, ls.Allocator, ls.MinGrantW, ls.AvgGrantW, ls.MaxGrantW, ls.Throttled)
		}
	}
	fmt.Fprintf(w, "  pooled p95 %.3f ms  p99 %.3f ms  (bound %.3f ms)  %.3f mJ/request  %d served\n",
		res.TailNs(0.95, 0.1)/1e6, res.TailNs(0.99, 0.1)/1e6, bound/1e6,
		res.EnergyPerRequestJ()*1e3, res.Served())
	for s, sr := range res.Sockets {
		fmt.Fprintf(w, "  socket %3d: p95 %.3f ms  %.3f mJ/request  %d served\n",
			s, sr.TailNs(0.95, 0.1)/1e6, sr.EnergyPerRequestJ()*1e3, sr.Served())
	}
	fmt.Fprintf(os.Stderr, "rubiksim: fleet %d sockets on %d shards in %.2fs (%.0f simulated requests/s)\n",
		sockets, res.Shards, elapsed.Seconds(), float64(res.Served())/elapsed.Seconds())
	if cs := res.TableCache; cs.Lookups() > 0 {
		fmt.Fprintf(os.Stderr, "rubiksim: table cache %d hits / %d lookups (%.1f%%), %d collisions, %d evictions\n",
			cs.Hits, cs.Lookups(), 100*cs.HitRate(), cs.Collisions, cs.Evictions)
	}
	return nil
}

// run is main's body, returning an exit code instead of calling os.Exit
// so profile- and output-file defers run on every path.
func run() int {
	var (
		exp        = flag.String("exp", "", "experiment ID to run (see -list), or \"all\"")
		list       = flag.Bool("list", false, "list available experiments")
		quick      = flag.Bool("quick", false, "reduced request counts (smoke mode)")
		seed       = flag.Int64("seed", 42, "random seed")
		out        = flag.String("out", "", "write output to this file instead of stdout")
		workers    = flag.Int("workers", 0, "parallel simulation fan-out (0 = GOMAXPROCS, 1 = sequential)")
		capW       = flag.Float64("cap", 0, "run one capped 6-core cluster at this socket budget (W) instead of an experiment")
		allocator  = flag.String("allocator", "waterfill", "budget allocator for -cap (uniform, greedy-slack, waterfill)")
		sockets    = flag.Int("sockets", 0, "run a sharded fleet with this many sockets instead of an experiment (-cap then sets the per-socket budget)")
		shards     = flag.Int("shards", 0, "event-loop goroutines for -sockets (0 = GOMAXPROCS, clamped to the socket count)")
		tablecache = flag.Int("tablecache", 0, "per-shard rebuild-cache entries for -sockets (0 = default, -1 = disable)")
		rackcap    = flag.Float64("rackcap", 0, "hierarchical fleet capping: rack-level budget (W) for -sockets (0 = flat capping only)")
		pducap     = flag.Float64("pducap", 0, "per-PDU budget (W) for -rackcap (0 = unlimited below the rack)")
		pdus       = flag.Int("pdus", 0, "PDU nodes between rack and sockets for -rackcap (0 = rack feeds sockets directly)")
		oversub    = flag.Float64("oversub", 1, "PDU oversubscription ratio for -rackcap (>= 1)")
		halloc     = flag.String("halloc", "waterfill", "tree-level allocator for -rackcap (static, waterfill)")
		epoch      = flag.Float64("epoch", 5, "budget re-allocation cadence in simulated ms for -rackcap")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	if *list {
		for _, e := range experiments.Registry() {
			fmt.Printf("%-8s %s\n", e.ID, e.Description)
		}
		return 0
	}
	if *sockets <= 0 && *capW <= 0 && *exp == "" {
		flag.Usage()
		return 2
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rubiksim:", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "rubiksim:", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rubiksim:", err)
			return 1
		}
		defer func() {
			runtime.GC() // settle the heap so the profile shows live objects
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "rubiksim:", err)
			}
			f.Close()
		}()
	}

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rubiksim:", err)
			return 1
		}
		defer f.Close()
		w = f
	}

	if *sockets > 0 {
		hier := hierOpts{RackW: *rackcap, PDUW: *pducap, PDUs: *pdus, Oversub: *oversub, Alloc: *halloc, EpochMs: *epoch}
		if err := runFleet(w, *sockets, *shards, *tablecache, *capW, *allocator, hier, *quick, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "rubiksim:", err)
			return 1
		}
		return 0
	}
	if *capW > 0 {
		if err := runCapped(w, *capW, *allocator, *quick, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "rubiksim:", err)
			return 1
		}
		return 0
	}

	opts := experiments.Options{Quick: *quick, Seed: *seed, Workers: *workers}
	ids := []string{*exp}
	if *exp == "all" {
		ids = ids[:0]
		for _, e := range experiments.Registry() {
			ids = append(ids, e.ID)
		}
	}
	for _, id := range ids {
		start := time.Now()
		fmt.Fprintf(w, "== %s ==\n", id)
		if err := experiments.RunAndRender(id, opts, w); err != nil {
			fmt.Fprintln(os.Stderr, "rubiksim:", err)
			return 1
		}
		fmt.Fprintf(w, "(%s in %.1fs)\n\n", id, time.Since(start).Seconds())
	}
	return 0
}

func main() { os.Exit(run()) }
