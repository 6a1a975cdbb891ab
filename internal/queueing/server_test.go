package queueing

import (
	"math"
	"testing"

	"rubik/internal/cpu"
	"rubik/internal/sim"
	"rubik/internal/stats"
	"rubik/internal/workload"
)

// expApp builds a memory-free app with exponential service times, for
// comparing against M/M/1 queueing theory.
func expApp(meanCycles float64) workload.LCApp {
	return workload.LCApp{
		Name:     "exp",
		Compute:  stats.Exponential{MeanValue: meanCycles},
		MemFrac:  0,
		Requests: 1000,
	}
}

func bareConfig(fMHz int) Config {
	cfg := DefaultConfig()
	cfg.TransitionLatency = 0
	cfg.WakeLatency = 0
	cfg.InitialMHz = fMHz
	return cfg
}

func TestRunValidation(t *testing.T) {
	tr := workload.Trace{}
	if _, err := Run(tr, FixedPolicy{MHz: 2400}, Config{}); err == nil {
		t.Fatal("empty grid must error")
	}
	cfg := DefaultConfig()
	cfg.InitialMHz = 999
	if _, err := Run(tr, FixedPolicy{MHz: 2400}, cfg); err == nil {
		t.Fatal("off-grid initial frequency must error")
	}
}

func TestEmptyTrace(t *testing.T) {
	res, err := Run(workload.Trace{}, FixedPolicy{MHz: 2400}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Completions) != 0 || res.ActiveEnergyJ != 0 {
		t.Fatalf("empty trace produced output: %+v", res)
	}
}

func TestSingleRequestTiming(t *testing.T) {
	tr := workload.Trace{Requests: []workload.Request{
		{ID: 0, Arrival: 1000, ComputeCycles: 2400_000, MemTime: 50_000},
	}}
	res, err := Run(tr, FixedPolicy{MHz: 2400}, bareConfig(2400))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Completions) != 1 {
		t.Fatalf("completions = %d", len(res.Completions))
	}
	c := res.Completions[0]
	// 2.4M cycles at 2400 MHz = 1 ms; plus 50 us memory.
	want := 1_050_000.0
	if math.Abs(c.ResponseNs()-want) > 2 {
		t.Fatalf("response = %v ns, want %v", c.ResponseNs(), want)
	}
	if c.Start != 1000 || c.QueueLenAtArrival != 0 {
		t.Fatalf("unexpected lifecycle: %+v", c)
	}
	// Energy: P(2400 MHz) for 1.05 ms.
	wantJ := cpu.DefaultPowerModel().ActivePower(2400) * want / 1e9
	if math.Abs(res.ActiveEnergyJ-wantJ) > 1e-9 {
		t.Fatalf("energy = %v, want %v", res.ActiveEnergyJ, wantJ)
	}
}

func TestWakeLatencyAppliesToFirstOfBusyPeriod(t *testing.T) {
	cfg := bareConfig(2400)
	cfg.WakeLatency = 10_000
	tr := workload.Trace{Requests: []workload.Request{
		{ID: 0, Arrival: 0, ComputeCycles: 240_000}, // 100 us
		{ID: 1, Arrival: 1, ComputeCycles: 240_000}, // queued behind 0
	}}
	res, err := Run(tr, FixedPolicy{MHz: 2400}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// First request pays wake latency: 110 us.
	if math.Abs(res.Completions[0].ResponseNs()-110_000) > 2 {
		t.Fatalf("first response = %v", res.Completions[0].ResponseNs())
	}
	// Second starts when first done; no wake penalty: done at 210 us.
	if math.Abs(res.Completions[1].ResponseNs()-(210_000-1)) > 2 {
		t.Fatalf("second response = %v", res.Completions[1].ResponseNs())
	}
}

func TestFIFOOrderAndConservation(t *testing.T) {
	tr := workload.GenerateAtLoad(workload.Masstree(), 0.6, 3000, 4)
	res, err := Run(tr, FixedPolicy{MHz: 2400}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Completions) != len(tr.Requests) {
		t.Fatalf("served %d of %d", len(res.Completions), len(tr.Requests))
	}
	for i, c := range res.Completions {
		if c.ID != i {
			t.Fatalf("completion %d has ID %d: FIFO violated", i, c.ID)
		}
		if i > 0 && c.Done < res.Completions[i-1].Done {
			t.Fatal("completions out of time order")
		}
		if c.ResponseNs() < c.ServiceNs()-1e-9 {
			t.Fatal("response below service time")
		}
	}
}

func TestMM1MeanResponse(t *testing.T) {
	// M/M/1 at load rho: E[response] = E[S] / (1 - rho).
	app := expApp(240_000) // 100 us at 2.4 GHz
	rho := 0.5
	tr := workload.GenerateAtLoad(app, rho, 60000, 9)
	res, err := Run(tr, FixedPolicy{MHz: 2400}, bareConfig(2400))
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, c := range res.Completions {
		sum += c.ResponseNs()
	}
	mean := sum / float64(len(res.Completions))
	want := 100_000.0 / (1 - rho)
	if math.Abs(mean-want) > 0.08*want {
		t.Fatalf("mean response %v ns, want M/M/1 %v", mean, want)
	}
}

func TestMD1MeanWait(t *testing.T) {
	// M/D/1 (deterministic service): Pollaczek-Khinchine gives
	// E[wait in queue] = rho * E[S] / (2 * (1 - rho)) — half the M/M/1
	// wait. This exercises the simulator against a second closed form.
	app := workload.LCApp{
		Name:     "det",
		Compute:  stats.Constant{V: 240_000}, // exactly 100 us at 2.4 GHz
		MemFrac:  0,
		Requests: 1000,
	}
	rho := 0.6
	tr := workload.GenerateAtLoad(app, rho, 60000, 14)
	res, err := Run(tr, FixedPolicy{MHz: 2400}, bareConfig(2400))
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, c := range res.Completions {
		sum += c.ResponseNs() - c.ServiceNs() // waiting time
	}
	mean := sum / float64(len(res.Completions))
	want := rho * 100_000 / (2 * (1 - rho))
	if math.Abs(mean-want) > 0.08*want {
		t.Fatalf("mean wait %v ns, want M/D/1 %v", mean, want)
	}
}

func TestUtilizationMatchesLoad(t *testing.T) {
	app := expApp(240_000)
	tr := workload.GenerateAtLoad(app, 0.3, 30000, 2)
	res, err := Run(tr, FixedPolicy{MHz: 2400}, bareConfig(2400))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Utilization()-0.3) > 0.03 {
		t.Fatalf("utilization %v, want ~0.3", res.Utilization())
	}
}

func TestHigherFrequencyShortensResponses(t *testing.T) {
	tr := workload.GenerateAtLoad(workload.Masstree(), 0.5, 2000, 3)
	lo, err := Run(tr, FixedPolicy{MHz: 1200}, bareConfig(1200))
	if err != nil {
		t.Fatal(err)
	}
	hi, err := Run(tr, FixedPolicy{MHz: 3400}, bareConfig(3400))
	if err != nil {
		t.Fatal(err)
	}
	if hi.TailNs(0.95, 0) >= lo.TailNs(0.95, 0) {
		t.Fatalf("p95 at 3.4GHz (%v) not below p95 at 1.2GHz (%v)",
			hi.TailNs(0.95, 0), lo.TailNs(0.95, 0))
	}
	if hi.ActiveEnergyJ <= lo.ActiveEnergyJ {
		t.Fatal("higher frequency must cost more energy")
	}
}

// switchOnSecond asks for a new frequency once the queue reaches 2.
type switchOnSecond struct {
	to int
}

func (p switchOnSecond) Name() string { return "switchOnSecond" }
func (p switchOnSecond) OnEvent(v View) int {
	if len(v.Queue) >= 2 {
		return p.to
	}
	return 0 // keep
}

func TestMidRequestFrequencyChange(t *testing.T) {
	// One long request; a second arrival halfway through triggers a switch
	// from 1200 to 2400 MHz with zero transition latency.
	tr := workload.Trace{Requests: []workload.Request{
		{ID: 0, Arrival: 0, ComputeCycles: 1_200_000}, // 1 ms at 1200 MHz
		{ID: 1, Arrival: 500_000, ComputeCycles: 1_200_000},
	}}
	res, err := Run(tr, switchOnSecond{to: 2400}, bareConfig(1200))
	if err != nil {
		t.Fatal(err)
	}
	// Request 0: 500 us at 1200 MHz consumes 600k cycles; remaining 600k
	// at 2400 MHz takes 250 us. Total 750 us.
	if got := res.Completions[0].ResponseNs(); math.Abs(got-750_000) > 5 {
		t.Fatalf("first response = %v, want 750000", got)
	}
	// Request 1: starts at 750 us, runs at 2400 (queue len 1 keeps freq),
	// 1.2M cycles at 2400 = 500 us, done at 1250 us; response 750 us.
	if got := res.Completions[1].ResponseNs(); math.Abs(got-750_000) > 5 {
		t.Fatalf("second response = %v, want 750000", got)
	}
}

func TestTransitionLatencyDelaysSwitch(t *testing.T) {
	cfg := bareConfig(1200)
	cfg.TransitionLatency = 100_000 // 100 us
	tr := workload.Trace{Requests: []workload.Request{
		{ID: 0, Arrival: 0, ComputeCycles: 1_200_000},
		{ID: 1, Arrival: 100, ComputeCycles: 1_200_000},
	}}
	res, err := Run(tr, switchOnSecond{to: 2400}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Request 0 runs at 1200 MHz until t=100+100000 ns (second arrival at
	// t=100 triggers the switch; it lands 100 us later). By then it has
	// consumed ~120,120 cycles; the remaining ~1,079,880 cycles run at
	// 2400 MHz (449,950 ns). Total ≈ 550,150 ns.
	want := 100.0 + 100_000 + (1_200_000-120_120)/2.4
	if got := res.Completions[0].ResponseNs(); math.Abs(got-want) > 50 {
		t.Fatalf("response = %v, want ~%v", got, want)
	}
}

func TestDeterminism(t *testing.T) {
	tr := workload.GenerateAtLoad(workload.Specjbb(), 0.5, 5000, 77)
	r1, err := Run(tr, FixedPolicy{MHz: 2000}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(tr, FixedPolicy{MHz: 2000}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if r1.ActiveEnergyJ != r2.ActiveEnergyJ || r1.EndTime != r2.EndTime {
		t.Fatal("simulation is not deterministic")
	}
	for i := range r1.Completions {
		if r1.Completions[i] != r2.Completions[i] {
			t.Fatalf("completion %d differs", i)
		}
	}
}

func TestFixedEnergyPerRequestFlatAcrossLoad(t *testing.T) {
	// Paper Fig. 9b: at a fixed frequency, active energy per request does
	// not change with load.
	app := workload.Masstree()
	cfg := bareConfig(2400)
	e := map[float64]float64{}
	for _, load := range []float64{0.2, 0.6} {
		tr := workload.GenerateAtLoad(app, load, 4000, 12)
		res, err := Run(tr, FixedPolicy{MHz: 2400}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		e[load] = res.EnergyPerRequestJ()
	}
	if math.Abs(e[0.2]-e[0.6]) > 0.02*e[0.2] {
		t.Fatalf("fixed-frequency energy/request varies with load: %v vs %v", e[0.2], e[0.6])
	}
}

func TestResidencySumsToOne(t *testing.T) {
	tr := workload.GenerateAtLoad(workload.Masstree(), 0.4, 1000, 8)
	res, err := Run(tr, FixedPolicy{MHz: 1800}, bareConfig(1800))
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, v := range res.Residency {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("residency sums to %v", sum)
	}
	// All of it at 1800 MHz.
	if idx := cpu.DefaultGrid().Index(1800); res.Residency[idx] != 1 {
		t.Fatalf("residency not concentrated at 1800: %v", res.Residency)
	}
}

func TestOffGridPolicyRequestRoundsUp(t *testing.T) {
	tr := workload.Trace{Requests: []workload.Request{
		{ID: 0, Arrival: 0, ComputeCycles: 100_000},
	}}
	res, err := Run(tr, FixedPolicy{MHz: 2300}, bareConfig(800))
	if err != nil {
		t.Fatal(err)
	}
	idx := cpu.DefaultGrid().Index(2400)
	if res.Residency[idx] == 0 {
		t.Fatalf("2300 MHz request should round up to 2400: %v", res.Residency)
	}
}

// tickCounter counts ticks and never changes frequency.
type tickCounter struct {
	period sim.Time
	ticks  int
}

func (p *tickCounter) Name() string        { return "ticker" }
func (p *tickCounter) OnEvent(View) int    { return 0 }
func (p *tickCounter) TickEvery() sim.Time { return p.period }
func (p *tickCounter) OnTick(View) int     { p.ticks++; return 0 }

func TestTickerRunsAndStops(t *testing.T) {
	// 10 requests spread over ~10 ms with 1 ms ticks.
	reqs := make([]workload.Request, 10)
	for i := range reqs {
		reqs[i] = workload.Request{ID: i, Arrival: sim.Time(i) * sim.Millisecond, ComputeCycles: 240_000}
	}
	p := &tickCounter{period: sim.Millisecond}
	res, err := Run(workload.Trace{Requests: reqs}, p, bareConfig(2400))
	if err != nil {
		t.Fatal(err)
	}
	if p.ticks < 8 || p.ticks > 12 {
		t.Fatalf("ticks = %d, want ~10", p.ticks)
	}
	if len(res.Completions) != 10 {
		t.Fatalf("completions = %d", len(res.Completions))
	}
	// The simulation terminated, so ticking stopped after the drain.
}

// observer collects completions via the CompletionObserver hook.
type observer struct {
	FixedPolicy
	seen int
}

func (o *observer) ObserveCompletion(Completion) { o.seen++ }

func TestCompletionObserver(t *testing.T) {
	tr := workload.GenerateAtLoad(workload.Masstree(), 0.3, 100, 6)
	o := &observer{FixedPolicy: FixedPolicy{MHz: 2400}}
	if _, err := Run(tr, o, bareConfig(2400)); err != nil {
		t.Fatal(err)
	}
	if o.seen != 100 {
		t.Fatalf("observer saw %d completions", o.seen)
	}
}

func TestTimelineRecording(t *testing.T) {
	cfg := bareConfig(1200)
	cfg.RecordTimeline = true
	tr := workload.Trace{Requests: []workload.Request{
		{ID: 0, Arrival: 0, ComputeCycles: 1_200_000},
		{ID: 1, Arrival: 100, ComputeCycles: 1_200_000},
	}}
	res, err := Run(tr, switchOnSecond{to: 2400}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.FreqTimeline) < 2 {
		t.Fatalf("freq timeline too short: %v", res.FreqTimeline)
	}
	if res.FreqTimeline[0].MHz != 1200 {
		t.Fatalf("initial frequency sample wrong: %v", res.FreqTimeline[0])
	}
	var total float64
	for _, e := range res.EnergyTimeline {
		total += e.J
	}
	if math.Abs(total-res.ActiveEnergyJ) > 1e-12 {
		t.Fatalf("energy timeline sums to %v, meter says %v", total, res.ActiveEnergyJ)
	}
	// Off by default.
	res2, err := Run(tr, switchOnSecond{to: 2400}, bareConfig(1200))
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.FreqTimeline) != 0 || len(res2.EnergyTimeline) != 0 {
		t.Fatal("timelines must be empty when not requested")
	}
}

func TestMetricsHelpers(t *testing.T) {
	res := Result{Completions: []Completion{
		{Done: 100}, {Done: 200}, {Done: 300}, {Done: 400},
	}, ActiveEnergyJ: 4, ActiveNs: sim.Second, IdleNs: sim.Second}
	if got := res.TailNs(0.5, 0); got != 200 {
		t.Fatalf("median = %v", got)
	}
	if got := res.TailNs(0.5, 0.5); got != 300 {
		t.Fatalf("median after warmup skip = %v", got)
	}
	if got := res.ViolationFrac(250, 0); got != 0.5 {
		t.Fatalf("violations = %v", got)
	}
	if got := res.EnergyPerRequestJ(); got != 1 {
		t.Fatalf("energy/request = %v", got)
	}
	if got := res.Utilization(); got != 0.5 {
		t.Fatalf("utilization = %v", got)
	}
	// Degenerate cases.
	var empty Result
	if empty.TailNs(0.95, 0) != 0 || empty.EnergyPerRequestJ() != 0 ||
		empty.Utilization() != 0 ||
		empty.ViolationFrac(1, 0) != 0 {
		t.Fatal("empty result metrics must be 0")
	}
	if got := res.Responses(2.0); len(got) != 0 {
		t.Fatal("warmup > 1 must skip everything")
	}
}
