package rubik_test

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"rubik"
)

func TestFacadeApps(t *testing.T) {
	apps := rubik.Apps()
	if len(apps) != 5 {
		t.Fatalf("Apps() = %d entries", len(apps))
	}
	if _, err := rubik.AppByName("masstree"); err != nil {
		t.Fatal(err)
	}
	if _, err := rubik.AppByName("bogus"); err == nil {
		t.Fatal("unknown app must error")
	}
}

func TestFacadeEndToEnd(t *testing.T) {
	app, err := rubik.AppByName("masstree")
	if err != nil {
		t.Fatal(err)
	}
	bound, err := rubik.TailBound(app, 1)
	if err != nil {
		t.Fatal(err)
	}
	if bound <= 0 {
		t.Fatalf("bound = %v", bound)
	}
	tr := rubik.GenerateTrace(app, 0.4, 3000, 2)
	cfg := rubik.DefaultServerConfig()
	fixed, err := rubik.Simulate(rubik.TraceSource(tr), rubik.Fixed(rubik.NominalMHz), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := rubik.NewController(bound)
	if err != nil {
		t.Fatal(err)
	}
	res, err := rubik.Simulate(rubik.TraceSource(tr), ctl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.ActiveEnergyJ >= fixed.ActiveEnergyJ {
		t.Fatalf("Rubik energy %v not below fixed %v", res.ActiveEnergyJ, fixed.ActiveEnergyJ)
	}
	if tail := res.TailNs(rubik.TailPercentile, 0.1); tail > bound*1.1 {
		t.Fatalf("Rubik tail %v above bound %v", tail, bound)
	}
}

func TestFacadeStaticOracle(t *testing.T) {
	app, err := rubik.AppByName("moses")
	if err != nil {
		t.Fatal(err)
	}
	bound, err := rubik.TailBound(app, 1)
	if err != nil {
		t.Fatal(err)
	}
	tr := rubik.GenerateTrace(app, 0.3, 900, 3)
	mhz, feasible, err := rubik.StaticOracleMHz(tr, bound)
	if err != nil {
		t.Fatal(err)
	}
	if !feasible {
		t.Fatal("static oracle infeasible at 30% load")
	}
	if mhz >= rubik.NominalMHz {
		t.Fatalf("oracle chose %d MHz at 30%% load", mhz)
	}
}

func TestFacadeExperiments(t *testing.T) {
	if len(rubik.Experiments()) != 25 {
		t.Fatalf("experiments = %d, want 25", len(rubik.Experiments()))
	}
	var buf bytes.Buffer
	opts := rubik.ExperimentOptions{Quick: true, Seed: 1}
	if err := rubik.RunExperiment("table2", opts, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "DVFS") {
		t.Fatal("table2 output missing expected content")
	}
	if err := rubik.RunExperiment("bogus", opts, &buf); err == nil {
		t.Fatal("unknown experiment must error")
	}
}

// TestFacadeValidate checks that Simulate validates the server
// configuration before running: the grid, the initial frequency and the
// power model, whose zero value or NaN coefficients would otherwise run
// and report 0 J or NaN J.
func TestFacadeValidate(t *testing.T) {
	app, err := rubik.AppByName("masstree")
	if err != nil {
		t.Fatal(err)
	}
	run := func(cfg rubik.ServerConfig) error {
		_, err := rubik.Simulate(rubik.StreamTrace(app, 0.5, 50, 1), rubik.Fixed(rubik.NominalMHz), cfg)
		return err
	}
	if err := run(rubik.DefaultServerConfig()); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		edit func(*rubik.ServerConfig)
	}{
		{"zero config", func(c *rubik.ServerConfig) { *c = rubik.ServerConfig{} }},
		{"off-grid initial frequency", func(c *rubik.ServerConfig) { c.InitialMHz = 999 }},
		{"zero power model", func(c *rubik.ServerConfig) { c.Power = rubik.PowerModel{} }},
		{"NaN dynamic power", func(c *rubik.ServerConfig) { c.Power.DynCoeff = math.NaN() }},
		{"negative transition latency", func(c *rubik.ServerConfig) { c.TransitionLatency = -1 }},
		{"negative wake latency", func(c *rubik.ServerConfig) { c.WakeLatency = -1 }},
	}
	for _, c := range cases {
		cfg := rubik.DefaultServerConfig()
		c.edit(&cfg)
		if err := run(cfg); err == nil {
			t.Errorf("%s: Simulate accepted an invalid server config", c.name)
		}
	}
}

// TestFacadeNegativeDeadlineRejected pins the termination guard for
// unbounded sources: the run loops read a non-positive Deadline as "run
// to drain", so a negative one used to run an unbounded stream forever.
// Every Simulate* entry point must reject it up front.
func TestFacadeNegativeDeadlineRejected(t *testing.T) {
	app, err := rubik.AppByName("masstree")
	if err != nil {
		t.Fatal(err)
	}
	unbounded := func() rubik.Source {
		src, err := rubik.NewScenarioSource("poisson", app, 0.5, -1, 1)
		if err != nil {
			t.Error(err)
		}
		return src
	}
	cfg := rubik.DefaultServerConfig()
	cfg.Deadline = -1
	cfg.DropCompletions = true // constant memory should a run not stop
	fixed := func(int) (rubik.Policy, error) { return rubik.Fixed(rubik.NominalMHz), nil }
	runs := []struct {
		name string
		run  func() error
	}{
		{"Simulate", func() error {
			_, err := rubik.Simulate(unbounded(), rubik.Fixed(rubik.NominalMHz), cfg)
			return err
		}},
		{"SimulateCluster", func() error {
			cc := rubik.NewCluster(2, nil, fixed)
			cc.Core = cfg
			_, err := rubik.SimulateCluster(unbounded(), cc)
			return err
		}},
		{"SimulateFleet", func() error {
			fc := rubik.NewFleet(2, 2, func(int) rubik.Source { return unbounded() },
				func(int, int) (rubik.Policy, error) { return fixed(0) })
			fc.Core, fc.Shards = cfg, 1
			_, err := rubik.SimulateFleet(fc)
			return err
		}},
	}
	for _, r := range runs {
		done := make(chan error, 1)
		go func() { done <- r.run() }()
		select {
		case err := <-done:
			if err == nil {
				t.Errorf("%s accepted a negative Deadline", r.name)
			}
		case <-time.After(10 * time.Second):
			t.Errorf("%s with a negative Deadline still running after 10 s", r.name)
		}
	}
}

func TestFacadeControllerConfig(t *testing.T) {
	cfg := rubik.ControllerConfig{}
	if _, err := rubik.NewControllerWithConfig(cfg); err == nil {
		t.Fatal("zero controller config must error")
	}
}

func TestFacadeCluster(t *testing.T) {
	app, err := rubik.AppByName("masstree")
	if err != nil {
		t.Fatal(err)
	}
	bound, err := rubik.TailBound(app, 1)
	if err != nil {
		t.Fatal(err)
	}
	// 4-core server at 50% per-core load: aggregate trace, per-core Rubik.
	tr := rubik.GenerateTrace(app, 0.5*4, 6000, 2)
	for _, d := range []rubik.Dispatcher{
		rubik.RandomDispatcher(7), rubik.RoundRobinDispatcher(),
		rubik.JSQDispatcher(), rubik.LeastWorkDispatcher(),
	} {
		cfg := rubik.NewCluster(4, d, func(int) (rubik.Policy, error) {
			return rubik.NewController(bound)
		})
		res, err := rubik.SimulateCluster(rubik.TraceSource(tr), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.PerCore) != 4 {
			t.Fatalf("%s: %d cores", d.Name(), len(res.PerCore))
		}
		var total int
		for _, c := range res.PerCore {
			total += len(c.Completions)
		}
		if total != 6000 {
			t.Fatalf("%s: completions %d != 6000", d.Name(), total)
		}
		if tail := res.TailNs(rubik.TailPercentile, 0.1); tail > bound*1.2 {
			t.Errorf("%s: pooled p95 %.0f ns above bound %.0f ns", d.Name(), tail, bound)
		}
	}
}

func TestFacadeStreaming(t *testing.T) {
	app, err := rubik.AppByName("masstree")
	if err != nil {
		t.Fatal(err)
	}

	// Streamed Poisson == materialized trace, end to end via the facade.
	fixed := rubik.Fixed(rubik.NominalMHz)
	want, err := rubik.Simulate(rubik.TraceSource(rubik.GenerateTrace(app, 0.5, 2000, 3)), fixed, rubik.DefaultServerConfig())
	if err != nil {
		t.Fatal(err)
	}
	got, err := rubik.Simulate(rubik.StreamTrace(app, 0.5, 2000, 3), fixed, rubik.DefaultServerConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("Simulate(StreamTrace) differs from Simulate(TraceSource(GenerateTrace))")
	}

	// Scenario registry through the facade, constant-memory config.
	if len(rubik.Scenarios()) < 6 {
		t.Fatalf("scenario registry has %d entries", len(rubik.Scenarios()))
	}
	src, err := rubik.NewScenarioSource("diurnal", app, 0.5, 3000, 9)
	if err != nil {
		t.Fatal(err)
	}
	cfg := rubik.DefaultServerConfig()
	cfg.DropCompletions = true
	res, err := rubik.Simulate(src, fixed, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Served != 3000 || len(res.Completions) != 0 {
		t.Fatalf("streamed run served %d, retained %d", res.Served, len(res.Completions))
	}
	if res.TailNs(rubik.TailPercentile, 0) <= 0 {
		t.Fatal("streamed tail missing")
	}
	if _, err := rubik.NewScenarioSource("nope", app, 0.5, 10, 1); err == nil {
		t.Fatal("unknown scenario accepted")
	}

	// Cluster streaming: one shared source dispatched across the cores.
	ccfg := rubik.NewCluster(2, rubik.JSQDispatcher(), func(int) (rubik.Policy, error) {
		return fixed, nil
	})
	cres, err := rubik.SimulateCluster(rubik.StreamTrace(app, 0.5*2, 2000, 4), ccfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(cres.PerCore[0].Completions) + len(cres.PerCore[1].Completions); got != 2000 {
		t.Fatalf("cluster streamed %d of 2000", got)
	}
}

// TestFacadeScenarioLoads feeds every registered scenario loads that are
// not finite and positive, or too low for the simulated clock, which
// must be rejected, and ordinary and huge loads, whose sources must build
// and stream. Each case runs under a deadline, so a source that spins
// fails the test instead of hanging it, and under a memory bound, so a
// source sized by its load (an unbounded closed loop of load·20 clients)
// fails it instead of allocating without limit.
func TestFacadeScenarioLoads(t *testing.T) {
	app, err := rubik.AppByName("masstree")
	if err != nil {
		t.Fatal(err)
	}
	const maxAllocB = 16 << 20
	for _, sc := range rubik.Scenarios() {
		for _, tc := range []struct {
			load float64
			n    int
			ok   bool
		}{
			{0, 200, false}, {-0.5, 200, false}, {math.NaN(), 200, false}, {math.Inf(1), 200, false}, {1e-300, 200, false},
			{0.1, 200, true}, {4.2, 200, true}, {1e5, -1, true}, {1e300, -1, true},
		} {
			done := make(chan error, 1)
			go func() {
				defer func() {
					if r := recover(); r != nil {
						done <- fmt.Errorf("panic: %v", r)
					}
				}()
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				src, err := rubik.NewScenarioSource(sc.Name, app, tc.load, tc.n, 1)
				if err != nil {
					done <- err
					return
				}
				for i := 0; i < 200; i++ {
					if _, ok := src.Next(); !ok {
						break
					}
				}
				runtime.ReadMemStats(&after)
				if b := after.TotalAlloc - before.TotalAlloc; b > maxAllocB {
					done <- fmt.Errorf("allocated %d B, want <= %d", b, maxAllocB)
					return
				}
				done <- nil
			}()
			select {
			case err := <-done:
				if tc.ok && err != nil {
					t.Errorf("%s at load %v, n %d: %v", sc.Name, tc.load, tc.n, err)
				}
				if !tc.ok && (err == nil || strings.HasPrefix(err.Error(), "panic")) {
					t.Errorf("%s at load %v, n %d: want an error, got %v", sc.Name, tc.load, tc.n, err)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("%s at load %v, n %d: source hung", sc.Name, tc.load, tc.n)
			}
		}
	}
}

// TestFacadeCappedCluster exercises the power-capping surface end to end
// through the facade: allocator constructors and lookup, FreqForPower,
// a cluster config with CapW and Allocator set, and the accounting field.
func TestFacadeCappedCluster(t *testing.T) {
	grid := rubik.DefaultGrid()
	model := rubik.DefaultServerConfig().Power
	if f, ok := rubik.FreqForPower(grid, model, 1e9); !ok || f != grid.Max() {
		t.Fatalf("FreqForPower(huge) = %d, %v", f, ok)
	}
	if f, ok := rubik.FreqForPower(grid, model, 0.01); ok || f != grid.Min() {
		t.Fatalf("FreqForPower(tiny) = %d, %v", f, ok)
	}
	for _, a := range []rubik.Allocator{
		rubik.UniformAllocator(), rubik.GreedySlackAllocator(), rubik.WaterfillAllocator(),
	} {
		byName, err := rubik.AllocatorByName(a.Name())
		if err != nil || byName.Name() != a.Name() {
			t.Fatalf("AllocatorByName(%q) = %v, %v", a.Name(), byName, err)
		}
	}
	if _, err := rubik.AllocatorByName("bogus"); err == nil {
		t.Fatal("unknown allocator must error")
	}

	app, err := rubik.AppByName("masstree")
	if err != nil {
		t.Fatal(err)
	}
	tr := rubik.GenerateTrace(app, 0.5*2, 2000, 6)
	newPolicy := func(int) (rubik.Policy, error) { return rubik.NewController(500_000) }

	cfg := rubik.NewCluster(2, rubik.JSQDispatcher(), newPolicy)
	cfg.CapW = 7
	cfg.Allocator = rubik.WaterfillAllocator()
	res, err := rubik.SimulateCluster(rubik.TraceSource(tr), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Served(); got != 2000 {
		t.Fatalf("capped cluster served %d of 2000", got)
	}
	if len(res.Capping) != 1 {
		t.Fatalf("capped cluster reported %d domains", len(res.Capping))
	}
	d := res.Capping[0]
	if d.Allocator != "waterfill" || d.CapW != 7 {
		t.Fatalf("domain stats %+v", d)
	}
	if d.ThrottleEvents == 0 {
		t.Fatal("a 7 W cap on 2 cores at 50% load never throttled")
	}
	if d.PeakPowerW > 7+1e-9 {
		t.Fatalf("peak granted power %.6f W over the 7 W cap", d.PeakPowerW)
	}

	// The streamed source must agree exactly with the materialized trace.
	res2, err := rubik.SimulateCluster(rubik.StreamTrace(app, 0.5*2, 2000, 6), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, res2) {
		t.Fatal("streamed capped cluster diverged from materialized replay")
	}
}
