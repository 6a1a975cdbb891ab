package cluster

import (
	"math"
	"reflect"
	"runtime"
	"testing"

	"rubik/internal/capping"
	rubikcore "rubik/internal/core"
	"rubik/internal/queueing"
	"rubik/internal/workload"
)

// rubikClusterConfig returns a capped-or-not cluster config with a fresh
// Rubik controller per core, the shape every capped test exercises
// (Rubik is the SlackReporter the greedy-slack strategy feeds on).
func rubikClusterConfig(t testing.TB, cores int, boundNs float64) Config {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Cores = cores
	cfg.Dispatcher = NewJSQ()
	cfg.NewPolicy = func(int) (queueing.Policy, error) {
		rcfg := rubikcore.DefaultConfig(boundNs)
		rcfg.TransitionLatency = cfg.Core.TransitionLatency
		return rubikcore.New(rcfg)
	}
	return cfg
}

// TestInfiniteCapByteIdentical is the no-cap transparency guarantee
// across every scenario shape in the registry: running with CapW = +Inf
// must produce cluster Results deeply identical to the uncapped run —
// same completions, same energies, same end times — for every allocator.
// Only the Capping accounting field may differ (nil vs. populated), and
// the populated accounting must show zero throttling.
func TestInfiniteCapByteIdentical(t *testing.T) {
	app := workload.Masstree()
	const bound = 500_000.0
	const n = 3000
	for _, sc := range workload.Scenarios() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			mk := func() workload.Source { return sc.New(app, 0.5*4, n, 9) }
			base := rubikClusterConfig(t, 4, bound)
			want, err := RunSource(mk(), base)
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range capping.Names() {
				alloc, err := capping.ByName(name)
				if err != nil {
					t.Fatal(err)
				}
				cfg := rubikClusterConfig(t, 4, bound)
				cfg.CapW = math.Inf(1)
				cfg.Allocator = alloc
				got, err := RunSource(mk(), cfg)
				if err != nil {
					t.Fatal(err)
				}
				d := got.Capping
				if d == nil {
					t.Fatalf("%s: capped run reported no domain", name)
				}
				if d.ThrottleEvents != 0 || d.CapExceededNs != 0 {
					t.Errorf("%s: infinite cap throttled: %+v", name, d)
				}
				got.Capping = nil
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s: CapW=+Inf diverged from the uncapped run", name)
				}
			}
		})
	}
}

// powerProbe wraps an allocator to record the granted power sum of every
// allocation round, so tests can assert the budget at each decision point
// of a real cluster run rather than only in allocator unit tests.
type powerProbe struct {
	inner capping.Allocator
	sums  *[]float64
}

func (p powerProbe) Name() string { return p.inner.Name() }

func (p powerProbe) Allocate(d *capping.Domain, demands []capping.Demand, grants []int) {
	p.inner.Allocate(d, demands, grants)
	*p.sums = append(*p.sums, d.PowerOf(grants))
}

// TestBindingCapHoldsBudget runs a binding cap end to end and asserts the
// invariant the subsystem exists for: at every allocation round of the
// whole simulation, the granted power sum stays within the cap, the
// accounting sees the same peak, and the cap is actually binding (some
// rounds throttle).
func TestBindingCapHoldsBudget(t *testing.T) {
	app := workload.Masstree()
	const capW = 14.0
	tr := workload.GenerateAtLoad(app, 0.5*4, 4000, 17)
	for _, name := range capping.Names() {
		alloc, err := capping.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		var sums []float64
		cfg := rubikClusterConfig(t, 4, 500_000)
		cfg.CapW = capW
		cfg.Allocator = powerProbe{inner: alloc, sums: &sums}
		res, err := Run(tr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Served() != 4000 {
			t.Fatalf("%s: served %d of 4000", name, res.Served())
		}
		if len(sums) == 0 {
			t.Fatalf("%s: no allocation rounds ran", name)
		}
		peak := 0.0
		for i, s := range sums {
			if s > capW*(1+1e-9) {
				t.Fatalf("%s: round %d granted %.9f W over the %.1f W cap", name, i, s, capW)
			}
			if s > peak {
				peak = s
			}
		}
		d := res.Capping
		if d.Allocator != name {
			t.Errorf("%s: stats report allocator %q", name, d.Allocator)
		}
		if d.Rounds != len(sums) {
			t.Errorf("%s: stats counted %d rounds, probe saw %d", name, d.Rounds, len(sums))
		}
		if math.Abs(d.PeakPowerW-peak) > 1e-9 {
			t.Errorf("%s: stats peak %.9f W, probe peak %.9f W", name, d.PeakPowerW, peak)
		}
		if d.ThrottleEvents == 0 {
			t.Errorf("%s: a %.0f W cap on 4 Rubik cores at 50%% load never throttled", name, capW)
		}
		if d.CapExceededNs != 0 {
			t.Errorf("%s: feasible cap accounted %d ns exceeded", name, d.CapExceededNs)
		}
		if d.AvgPowerW <= 0 || d.AvgPowerW > capW*(1+1e-9) {
			t.Errorf("%s: avg granted power %.3f W outside (0, cap]", name, d.AvgPowerW)
		}
	}
}

// TestCappedRunDeterministic pins that two capped runs of the same seed
// and configuration are deeply identical, including the accounting.
func TestCappedRunDeterministic(t *testing.T) {
	app := workload.Masstree()
	mk := func() (Result, error) {
		cfg := rubikClusterConfig(t, 4, 500_000)
		cfg.CapW = 16
		cfg.Allocator = capping.GreedySlack{}
		return RunSource(workload.NewLoadSource(app, 0.5*4, 3000, 23), cfg)
	}
	a, err := mk()
	if err != nil {
		t.Fatal(err)
	}
	b, err := mk()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("capped cluster run not deterministic")
	}
}

// TestInfeasibleCapAccounted pins the infeasible regime: a cap below the
// all-minimum floor cannot be honored, every core pins to the minimum
// step, and the whole run is accounted as cap-exceeded.
func TestInfeasibleCapAccounted(t *testing.T) {
	app := workload.Masstree()
	tr := workload.GenerateAtLoad(app, 0.3*2, 400, 5)
	cfg := rubikClusterConfig(t, 2, 500_000)
	cfg.CapW = 1 // 2 cores at 800 MHz need ~2.1 W
	res, err := Run(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	d := res.Capping
	if d.CapExceededNs != res.EndTime {
		t.Errorf("infeasible cap: exceeded %d ns of %d ns total", d.CapExceededNs, res.EndTime)
	}
	for i, c := range res.PerCore {
		for j, frac := range c.Residency {
			if j > 0 && frac > 0 {
				t.Fatalf("core %d ran %f of its active time above the minimum step under an infeasible cap", i, frac)
				break
			}
		}
	}
}

// TestCappedClusterValidation exercises the capping wiring's error
// paths: each config must be rejected with an error, never a panic.
func TestCappedClusterValidation(t *testing.T) {
	tr := workload.GenerateAtLoad(workload.Masstree(), 0.5, 50, 1)
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"negative cap", func(c *Config) { c.CapW = -3 }},
		{"negative cores under a cap", func(c *Config) { c.CapW = 20; c.Cores = -1 }},
		{"nil policy factory under a cap", func(c *Config) { c.CapW = 20; c.NewPolicy = nil }},
	}
	for _, cse := range cases {
		cfg := DefaultConfig()
		cfg.Cores = 4
		cse.mut(&cfg)
		if _, err := Run(tr, cfg); err == nil {
			t.Errorf("%s: accepted", cse.name)
		}
	}
}

// TestStreamingCappedClusterConstantMemory is the capped counterpart of
// TestStreamingClusterConstantMemory: a 1M-request diurnal run on a
// capped 4-core cluster with DropCompletions must complete with total
// allocation independent of the request count — the coordinator's
// per-decision path reuses the domain scratch just like the cores reuse
// their rings.
func TestStreamingCappedClusterConstantMemory(t *testing.T) {
	n := 1_000_000
	if testing.Short() {
		n = 200_000
	}
	app := workload.Masstree()
	sc, err := workload.ScenarioByName("diurnal")
	if err != nil {
		t.Fatal(err)
	}
	cfg := rubikClusterConfig(t, 4, 500_000)
	cfg.Core.DropCompletions = true
	cfg.CapW = 16
	cfg.Allocator = capping.Waterfill{}

	src := sc.New(app, 0.5*float64(cfg.Cores), n, 11)
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	res, err := RunSource(src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&m1)

	if res.Served() != n {
		t.Fatalf("served %d of %d", res.Served(), n)
	}
	for i, c := range res.PerCore {
		if len(c.Completions) != 0 {
			t.Fatalf("core %d retained %d completions", i, len(c.Completions))
		}
	}
	if tail := res.TailNs(0.95, 0); tail <= 0 {
		t.Fatalf("streamed tail %v", tail)
	}
	if d := res.Capping; d.ThrottleEvents == 0 {
		t.Fatal("16 W cap on 4 Rubik cores never throttled")
	}
	// Setup (engine, cores, domains, histograms, Rubik tables) is
	// fixed-size; everything per request and per allocation round is
	// pooled. Rubik's table builder owns a few MB of FFT scratch, so the
	// guard is 16 MB — at 1M requests that is 16 bytes/request, far below
	// what any per-request log or per-round allocation would cost. (The
	// race detector instruments allocations; the guard only holds
	// uninstrumented.)
	if delta := m1.TotalAlloc - m0.TotalAlloc; !raceEnabled && delta > 16<<20 {
		t.Errorf("capped streaming run allocated %.2f MB total (%.2f B/request) — memory not independent of request count",
			float64(delta)/1e6, float64(delta)/float64(n))
	}
}
