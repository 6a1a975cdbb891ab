package coloc

import (
	"math"
	"testing"

	"rubik/internal/cpu"
	"rubik/internal/policy"
	"rubik/internal/queueing"
	"rubik/internal/sim"
	"rubik/internal/workload"
)

func mustBatch(t *testing.T, name string) workload.BatchApp {
	t.Helper()
	b, ok := workload.FindBatchApp(name)
	if !ok {
		t.Fatalf("batch app %s not in pool", name)
	}
	return b
}

// boundAndStatic derives the app's tail bound (fixed-nominal at 50%) and
// the StaticOracle frequency at the given load on uncolocated traces.
func boundAndStatic(t *testing.T, app workload.LCApp, load float64, n int) (float64, int) {
	t.Helper()
	rcfg := policy.DefaultReplayConfig()
	boundTr := workload.GenerateAtLoad(app, 0.5, n, 900)
	rep, err := policy.Replay(boundTr, policy.UniformAssignment(n, cpu.NominalMHz), rcfg)
	if err != nil {
		t.Fatal(err)
	}
	bound := rep.TailNs(0.95)
	tr := workload.GenerateAtLoad(app, load, n, 901)
	so, err := policy.StaticOracle(tr, cpu.DefaultGrid(), bound, 0.95, rcfg)
	if err != nil {
		t.Fatal(err)
	}
	return bound, so.MHz
}

func TestInterferencePenalty(t *testing.T) {
	ic := DefaultInterference()
	namd := mustBatch(t, "namd")
	mcf := mustBatch(t, "mcf")
	// No occupancy, no penalty.
	if p := ic.extraCycles(mcf, 600_000, 0); p != 0 {
		t.Fatalf("penalty without occupancy = %v", p)
	}
	// Memory-hungry partners pollute more.
	pNamd := ic.extraCycles(namd, 600_000, 1e6)
	pMcf := ic.extraCycles(mcf, 600_000, 1e6)
	if pMcf <= pNamd {
		t.Fatalf("mcf penalty %v not above namd %v", pMcf, pNamd)
	}
	// The penalty is microseconds-scale at nominal frequency (paper
	// Sec. 6: private caches refill from the warm LLC in microseconds).
	if us := pMcf * 1000 / 2400 / 1000; us < 10 || us > 200 {
		t.Fatalf("full mcf penalty = %.1f us at nominal, want microseconds-scale", us)
	}
	// Saturation: doubling a long occupancy changes nothing.
	if a, b := ic.extraCycles(mcf, 600_000, 1e8), ic.extraCycles(mcf, 600_000, 2e8); a != b {
		t.Fatalf("penalty not saturating: %v vs %v", a, b)
	}
	// Short occupancies pollute proportionally less.
	if s := ic.extraCycles(mcf, 600_000, ic.SaturationNs/10); s >= pMcf {
		t.Fatal("short occupancy must pollute less than saturation")
	}
}

func TestRunCoreBasics(t *testing.T) {
	app := workload.Masstree()
	tr := workload.GenerateAtLoad(app, 0.3, 800, 5)
	res, err := RunCore(CoreConfig{
		App:               app,
		Batch:             mustBatch(t, "gcc"),
		Source:            workload.NewTraceSource(tr),
		LCPolicy:          queueing.FixedPolicy{MHz: cpu.NominalMHz},
		Grid:              cpu.DefaultGrid(),
		Power:             cpu.DefaultPowerModel(),
		TransitionLatency: 0,
		Interference:      DefaultInterference(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Completions) != 800 {
		t.Fatalf("completions = %d", len(res.Completions))
	}
	if res.BatchUnits <= 0 {
		t.Fatal("batch made no progress in LC idle gaps")
	}
	// The core is never idle: LC busy + batch busy ≈ end time.
	total := res.LCBusyNs + res.BatchBusyNs
	if math.Abs(total-float64(res.EndTime)) > 0.01*float64(res.EndTime) {
		t.Fatalf("busy %v != end %v: the core idled", total, res.EndTime)
	}
	// At 30% load the LC share should be near 30% (inflated a bit by
	// interference).
	lcFrac := res.LCBusyNs / float64(res.EndTime)
	if lcFrac < 0.25 || lcFrac > 0.45 {
		t.Fatalf("LC busy fraction %v implausible for 30%% load", lcFrac)
	}
	if res.LCEnergyJ <= 0 || res.BatchEnergyJ <= 0 {
		t.Fatal("energy split missing")
	}
}

// lcTicker asks for mhz on every event and periodic tick.
type lcTicker struct {
	mhz   int
	ticks int
}

func (p *lcTicker) Name() string              { return "lc-ticker" }
func (p *lcTicker) OnEvent(queueing.View) int { return p.mhz }
func (p *lcTicker) TickEvery() sim.Time       { return 100 * sim.Microsecond }
func (p *lcTicker) OnTick(queueing.View) int  { p.ticks++; return p.mhz }

// TestLCTickWithheldWhileQueueEmpty pins the colocated core's decision
// gate: the LC policy owns the frequency only while LC work is queued, so
// a periodic tick in an LC idle gap must leave the core at BatchMHz.
func TestLCTickWithheldWhileQueueEmpty(t *testing.T) {
	const lcMHz, batchMHz = cpu.MaxMHz, 1200
	p := &lcTicker{mhz: lcMHz}
	eng := sim.NewEngine()
	c, err := newCore(eng, CoreConfig{
		App:   workload.Masstree(),
		Batch: mustBatch(t, "gcc"),
		Source: workload.NewTraceSource(workload.Trace{Requests: []workload.Request{
			{ID: 0, Arrival: 0, ComputeCycles: 240_000},
			{ID: 1, Arrival: 5 * sim.Millisecond, ComputeCycles: 240_000},
		}}),
		LCPolicy:     p,
		BatchMHz:     batchMHz,
		Grid:         cpu.DefaultGrid(),
		Power:        cpu.DefaultPowerModel(),
		InitialMHz:   cpu.NominalMHz,
		Interference: DefaultInterference(),
	})
	if err != nil {
		t.Fatal(err)
	}
	c.start()
	eng.RunEventsUntil(50 * sim.Microsecond)
	if c.queueLen() != 1 || c.qc.CurrentMHz() != lcMHz {
		t.Fatalf("serving the first request: queue %d at %d MHz, want 1 at the LC policy's %d",
			c.queueLen(), c.qc.CurrentMHz(), lcMHz)
	}
	eng.RunEventsUntil(3 * sim.Millisecond)
	if p.ticks < 10 {
		t.Fatalf("only %d ticks by 3 ms; the idle gap was not exercised", p.ticks)
	}
	if c.queueLen() != 0 || c.qc.CurrentMHz() != batchMHz {
		t.Fatalf("LC idle gap: queue %d at %d MHz, want 0 at BatchMHz %d",
			c.queueLen(), c.qc.CurrentMHz(), batchMHz)
	}
}

func TestRunCoreValidation(t *testing.T) {
	if _, err := RunCore(CoreConfig{}); err == nil {
		t.Fatal("zero config must error")
	}
	valid := func() CoreConfig {
		return CoreConfig{
			App: workload.Masstree(), Batch: mustBatch(t, "gcc"),
			Source:   workload.NewLoadSource(workload.Masstree(), 0.3, 20, 1),
			LCPolicy: queueing.FixedPolicy{MHz: cpu.NominalMHz},
			Grid:     cpu.DefaultGrid(), Power: cpu.DefaultPowerModel(),
		}
	}
	if _, err := RunCore(valid()); err != nil {
		t.Fatal(err)
	}
	// Without an LC policy nothing would ever set the LC app's frequency:
	// it would run at the batch app's.
	cfg := valid()
	cfg.LCPolicy = nil
	if _, err := RunCore(cfg); err == nil {
		t.Fatal("nil LC policy must error")
	}
	cfg = valid()
	cfg.Grid = cpu.Grid{}
	if _, err := RunCore(cfg); err == nil {
		t.Fatal("empty grid must error")
	}
	cfg = valid()
	cfg.InitialMHz = 999
	if _, err := RunCore(cfg); err == nil {
		t.Fatal("off-grid initial frequency must error")
	}
	cfg = valid()
	cfg.Source = nil
	if _, err := RunCore(cfg); err == nil {
		t.Fatal("missing source must error")
	}
}

// TestRunCoreClosedLoop serves closed-loop clients on a colocated core
// under a ticking LC policy: the core feeds every completion back, so
// the population issues all N requests, never more than Clients at once,
// and the ticks stop once the source is exhausted.
func TestRunCoreClosedLoop(t *testing.T) {
	app := workload.Masstree()
	cl := workload.ClosedLoop{App: app, Clients: 4, MeanThink: sim.Time(10 * app.MeanServiceNsAtNominal()), N: 300, Seed: 3}
	res, err := RunCore(CoreConfig{
		App: app, Batch: mustBatch(t, "gcc"), Source: cl.NewSource(),
		LCPolicy: &lcTicker{mhz: cpu.NominalMHz},
		Grid:     cpu.DefaultGrid(), Power: cpu.DefaultPowerModel(),
		Interference: DefaultInterference(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Completions) != cl.N {
		t.Fatalf("served %d of %d closed-loop requests", len(res.Completions), cl.N)
	}
	seen := make([]bool, cl.N)
	for _, c := range res.Completions {
		if c.ID < 0 || c.ID >= cl.N || seen[c.ID] {
			t.Fatalf("request ID %d repeated or out of range", c.ID)
		}
		seen[c.ID] = true
		if c.QueueLenAtArrival >= cl.Clients {
			t.Fatalf("request %d found %d in system with %d clients", c.ID, c.QueueLenAtArrival, cl.Clients)
		}
	}
	// One more tick at most sees the exhausted source and stops.
	last := res.Completions[len(res.Completions)-1].Done
	if tick := (&lcTicker{}).TickEvery(); res.EndTime > last+tick {
		t.Fatalf("run ended at %d, over a tick after the last completion at %d", res.EndTime, last)
	}
}

func TestColocationInflatesServiceTimes(t *testing.T) {
	// The same trace served colocated (with interference) must be slower
	// than uncolocated.
	app := workload.Masstree()
	tr := workload.GenerateAtLoad(app, 0.4, 1500, 8)
	colocated, err := RunCore(CoreConfig{
		App: app, Batch: mustBatch(t, "mcf"), Source: workload.NewTraceSource(tr),
		LCPolicy: queueing.FixedPolicy{MHz: cpu.NominalMHz},
		Grid:     cpu.DefaultGrid(), Power: cpu.DefaultPowerModel(),
		Interference: DefaultInterference(),
	})
	if err != nil {
		t.Fatal(err)
	}
	qcfg := queueing.DefaultConfig()
	qcfg.TransitionLatency = 0
	qcfg.WakeLatency = 0
	alone, err := queueing.Run(tr, queueing.FixedPolicy{MHz: cpu.NominalMHz}, qcfg)
	if err != nil {
		t.Fatal(err)
	}
	ct := colocated.TailNs(0.95, 0.1)
	at := alone.TailNs(0.95, 0.1)
	if ct <= at {
		t.Fatalf("colocated tail %v not above uncolocated %v", ct, at)
	}
}

func TestRubikColocMaintainsTailStaticColocDegrades(t *testing.T) {
	// The paper's Fig. 15 claim in miniature. StaticColoc's degradation is
	// distributional: whether a configuration violates depends on how much
	// slack the 200 MHz frequency quantization left above the uncolocated
	// p95 (which is why the paper reports 40% of mixes violating, not
	// all). So this test samples several configurations and checks the
	// distribution: RubikColoc holds every one at the bound, StaticColoc
	// violates somewhere, and StaticColoc's worst case exceeds
	// RubikColoc's.
	load := 0.6
	mix := []workload.BatchApp{mustBatch(t, "mcf")}
	worstStatic, worstRubik := 0.0, 0.0
	for _, app := range []workload.LCApp{workload.Masstree(), workload.Specjbb()} {
		n := 2500
		if minN := int(2e9 * load / app.MeanServiceNsAtNominal()); n < minN {
			n = minN
		}
		bound, staticMHz := boundAndStatic(t, app, load, n)
		for _, seed := range []int64{11, 77, 203} {
			cfg := DefaultServerConfig(app, mix, load, bound, seed)
			cfg.RequestsPerCore = n
			st, err := RunStaticColocServer(cfg, staticMHz)
			if err != nil {
				t.Fatal(err)
			}
			rb, err := RunRubikColocServer(cfg)
			if err != nil {
				t.Fatal(err)
			}
			stTail := st.TailNs(0.95, 0.1) / bound
			rbTail := rb.TailNs(0.95, 0.1) / bound
			if stTail > worstStatic {
				worstStatic = stTail
			}
			if rbTail > worstRubik {
				worstRubik = rbTail
			}
			if rbTail > 1.05 {
				t.Errorf("%s seed %d: RubikColoc tail ratio %.3f above bound", app.Name, seed, rbTail)
			}
		}
	}
	if worstStatic < 1.02 {
		t.Errorf("StaticColoc never degraded (worst %.3f): interference too weak to matter", worstStatic)
	}
	if worstRubik >= worstStatic {
		t.Errorf("RubikColoc worst (%.3f) not better than StaticColoc worst (%.3f)",
			worstRubik, worstStatic)
	}
}

func TestRubikColocKeepsBatchProgress(t *testing.T) {
	app := workload.Masstree()
	const n = 1500
	bound, _ := boundAndStatic(t, app, 0.3, n)
	mix := []workload.BatchApp{mustBatch(t, "namd")}
	cfg := DefaultServerConfig(app, mix, 0.3, bound, 3)
	cfg.RequestsPerCore = n
	res, err := RunRubikColocServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := res.Cores[0]
	// At 30% LC load, batch should get the majority of the core.
	if frac := c.BatchBusyNs / float64(c.EndTime); frac < 0.5 {
		t.Fatalf("batch only got %.2f of the core at 30%% LC load", frac)
	}
	if res.TotalEnergyJ() <= 0 {
		t.Fatal("no energy accounted")
	}
}

func TestSchemeValidation(t *testing.T) {
	app := workload.Masstree()
	cfg := DefaultServerConfig(app, nil, 0.3, 1e6, 1)
	if _, err := RunRubikColocServer(cfg); err == nil {
		t.Fatal("empty mix must error")
	}
	cfg2 := DefaultServerConfig(app, []workload.BatchApp{mustBatch(t, "gcc")}, 0.3, 0, 1)
	if _, err := RunRubikColocServer(cfg2); err == nil {
		t.Fatal("missing bound must error")
	}
	if _, err := RunStaticColocServer(cfg2, 0); err == nil {
		t.Fatal("missing static frequency must error")
	}
	// A negative LC stream length is a config error.
	negative := DefaultServerConfig(app, []workload.BatchApp{mustBatch(t, "gcc")}, 0.3, 1e6, 1)
	negative.RequestsPerCore = -1
	if _, err := RunStaticColocServer(negative, cpu.NominalMHz); err == nil {
		t.Fatal("StaticColoc accepted a negative stream length")
	}
	if _, err := RunRubikColocServer(negative); err == nil {
		t.Fatal("RubikColoc accepted a negative stream length")
	}
}

// Every server runner must reject an LC load that is not finite and
// positive rather than run it as NewLoadSource's 1 req/s fallback.
func TestServersRejectBadLoad(t *testing.T) {
	app := workload.Masstree()
	mix := []workload.BatchApp{mustBatch(t, "gcc")}
	for _, load := range []float64{0, -0.5, math.NaN(), math.Inf(1), math.Inf(-1)} {
		cfg := DefaultServerConfig(app, mix, load, 1e6, 1)
		cfg.RequestsPerCore = 3
		if _, err := RunRubikColocServer(cfg); err == nil {
			t.Errorf("RubikColoc accepted load %v", load)
		}
		if _, err := RunStaticColocServer(cfg, cpu.NominalMHz); err == nil {
			t.Errorf("StaticColoc accepted load %v", load)
		}
		if _, err := RunHWServer(cfg); err == nil {
			t.Errorf("HW server accepted load %v", load)
		}
	}
}

// The HW governor floor is the lowest step that sustains the LC load, so
// it can only rise with load: an overload no step sustains gets the top
// step, never the grid minimum. Average LC power (LC energy over LC busy
// time) follows the floor.
func TestHWFloorRisesUnderOverload(t *testing.T) {
	app := workload.Masstree()
	mix := workload.Mixes(1, 6, 42)[0]
	lcPowerW := func(obj HWObjective, load float64) float64 {
		res, err := RunHWServer(ServerConfig{
			App: app, Mix: mix, Load: load, RequestsPerCore: 400, Seed: 9,
			Grid: cpu.DefaultGrid(), Power: cpu.DefaultPowerModel(),
			TransitionLatency: 4 * sim.Microsecond,
			Interference:      DefaultInterference(),
			Objective:         obj,
		})
		if err != nil {
			t.Fatal(err)
		}
		var joules, busyNs float64
		for _, c := range res.Cores {
			joules += c.LCEnergyJ
			busyNs += c.LCBusyNs
		}
		return joules / (busyNs * 1e-9)
	}
	for _, obj := range []HWObjective{HWThroughput, HWThroughputPerWatt} {
		full, over := lcPowerW(obj, 1.0), lcPowerW(obj, 1.2)
		if over < full {
			t.Errorf("objective %v: LC power %.2f W at load 1.2 < %.2f W at load 1.0", obj, over, full)
		}
	}
}

func TestAllocateRespectsTDP(t *testing.T) {
	grid := cpu.DefaultGrid()
	model := cpu.DefaultPowerModel()
	curves := make([]occupantCurve, 6)
	for i := range curves {
		curves[i] = occupantCurve{computeCyclesPerUnit: 2e6, memNsPerUnit: 5e4, activity: 1}
	}
	for _, obj := range []HWObjective{HWThroughput, HWThroughputPerWatt} {
		freqs := allocate(curves, nil, grid, model, 20, obj)
		var total float64
		for i, f := range freqs {
			total += curves[i].power(f, model)
			if grid.Index(f) < 0 {
				t.Fatalf("allocated off-grid frequency %d", f)
			}
		}
		if total > 20+1e-9 {
			t.Fatalf("objective %v exceeded TDP: %v W", obj, total)
		}
	}
}

func TestAllocateHWTFavorsComputeBound(t *testing.T) {
	grid := cpu.DefaultGrid()
	model := cpu.DefaultPowerModel()
	namd := mustBatch(t, "namd")
	mcf := mustBatch(t, "mcf")
	curves := []occupantCurve{
		{computeCyclesPerUnit: namd.CyclesPerUnit, memNsPerUnit: namd.MemNsPerUnit, activity: 1},
		{computeCyclesPerUnit: mcf.CyclesPerUnit, memNsPerUnit: mcf.MemNsPerUnit, activity: 1},
	}
	// A budget that cannot power both cores at max.
	freqs := allocate(curves, nil, grid, model, 12, HWThroughput)
	if freqs[0] <= freqs[1] {
		t.Fatalf("HW-T gave compute-bound core %d and memory-bound core %d", freqs[0], freqs[1])
	}
}

func TestHWServersViolateTails(t *testing.T) {
	// Fig. 15: the hardware QoS-blind schemes grossly violate tails at 60%
	// load while RubikColoc holds them.
	app := workload.Masstree()
	const n = 1500
	load := 0.6
	bound, _ := boundAndStatic(t, app, load, n)
	mix := workload.Mixes(1, 6, 42)[0]

	for _, obj := range []HWObjective{HWThroughput, HWThroughputPerWatt} {
		res, err := RunHWServer(ServerConfig{
			App: app, Mix: mix, Load: load, RequestsPerCore: n, Seed: 9,
			Grid: cpu.DefaultGrid(), Power: cpu.DefaultPowerModel(),
			TransitionLatency: 4 * sim.Microsecond,
			Interference:      DefaultInterference(),
			Objective:         obj,
		})
		if err != nil {
			t.Fatal(err)
		}
		rel := res.TailNs(0.95, 0.1) / bound
		if rel < 1.2 {
			t.Errorf("objective %v: tail ratio %.2f — expected gross violation (>1.2)", obj, rel)
		}
	}
}

func TestRunHWServerValidation(t *testing.T) {
	if _, err := RunHWServer(ServerConfig{}); err == nil {
		t.Fatal("empty mix must error")
	}
	// A negative LC stream length is a config error.
	if _, err := RunHWServer(ServerConfig{
		App: workload.Masstree(), Mix: []workload.BatchApp{mustBatch(t, "gcc")},
		Load: 0.3, RequestsPerCore: -1, Seed: 1,
		Grid: cpu.DefaultGrid(), Power: cpu.DefaultPowerModel(),
		Interference: DefaultInterference(),
	}); err == nil {
		t.Fatal("HW server accepted a negative stream length")
	}
}
