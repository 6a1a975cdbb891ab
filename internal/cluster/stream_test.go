package cluster

import (
	"reflect"
	"runtime"
	"testing"

	"rubik/internal/queueing"
	"rubik/internal/sim"
	"rubik/internal/workload"
)

// TestRunSourceMatchesRunJSQ is the cluster half of the tentpole
// property: streaming a Poisson source through JSQ dispatch produces a
// Result deeply identical to materializing the same seed's trace and
// replaying it through Run.
func TestRunSourceMatchesRunJSQ(t *testing.T) {
	app := workload.Masstree()
	const n, seed = 6000, 13
	mkCfg := func() Config {
		cfg := DefaultConfig()
		cfg.Cores = 4
		cfg.Dispatcher = NewJSQ()
		return cfg
	}
	tr := workload.GenerateAtLoad(app, 0.5*4, n, seed)
	want, err := Run(tr, mkCfg())
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunSource(workload.NewLoadSource(app, 0.5*4, n, seed), mkCfg())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("streamed cluster Result differs from materialized replay")
	}
	if got.Served() != n {
		t.Fatalf("served %d of %d", got.Served(), n)
	}
}

// TestClusterClosedLoop routes a shared closed-loop population through
// JSQ dispatch: completions on any core re-arm the population.
func TestClusterClosedLoop(t *testing.T) {
	app := workload.Masstree()
	cl := workload.ClosedLoop{
		App:       app,
		Clients:   12,
		MeanThink: sim.Time(5 * app.MeanServiceNsAtNominal()),
		N:         3000,
		Seed:      4,
	}
	cfg := DefaultConfig()
	cfg.Cores = 3
	cfg.Dispatcher = NewJSQ()
	a, err := RunSource(cl.NewSource(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Served() != 3000 {
		t.Fatalf("closed-loop cluster served %d of 3000", a.Served())
	}
	b, err := RunSource(cl.NewSource(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("closed-loop cluster run not deterministic")
	}
}

// tickProbe is a fixed-frequency Ticker that records its last tick time,
// so tests can detect a periodic control loop dying mid-run.
type tickProbe struct {
	mhz   int
	every sim.Time
	last  *sim.Time
}

func (p *tickProbe) Name() string               { return "tickprobe" }
func (p *tickProbe) OnEvent(queueing.View) int  { return p.mhz }
func (p *tickProbe) OnTick(v queueing.View) int { *p.last = v.Now; return p.mhz }
func (p *tickProbe) TickEvery() sim.Time        { return p.every }

// TestClosedLoopKeepsTickersAlive regresses the shared-feeder lifecycle
// bug: with a closed-loop source, the feeder's lookahead is frequently
// empty while every request is in flight, and an idle core's policy tick
// firing in that window used to terminate permanently. Feeder.More
// keeps reporting more until the source is Exhausted, so every core's
// ticker must survive to the end of the run.
func TestClosedLoopKeepsTickersAlive(t *testing.T) {
	app := workload.Masstree()
	cl := workload.ClosedLoop{
		App:     app,
		Clients: 2, // fewer clients than cores, short think: the spare
		// core is idle while every client is in flight, exactly the
		// window where its tick used to see no more arrivals and die.
		MeanThink: sim.Time(0.2 * app.MeanServiceNsAtNominal()),
		N:         2000,
		Seed:      6,
	}
	cfg := DefaultConfig()
	cfg.Cores = 3
	cfg.Dispatcher = NewJSQ()
	lasts := make([]sim.Time, cfg.Cores)
	every := 20 * sim.Microsecond
	cfg.NewPolicy = func(i int) (queueing.Policy, error) {
		return &tickProbe{mhz: cfg.Core.InitialMHz, every: every, last: &lasts[i]}, nil
	}
	res, err := RunSource(cl.NewSource(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Served() != 2000 {
		t.Fatalf("served %d of 2000", res.Served())
	}
	for i, last := range lasts {
		if last < res.EndTime-10*every {
			t.Errorf("core %d ticker died at %v (end %v): lifecycle bug is back", i, last, res.EndTime)
		}
	}
}

// TestStreamingClusterConstantMemory is the acceptance run: a 10M-request
// diurnal scenario on a 4-core cluster completes with memory independent
// of the request count — no []Request materialization, no completion
// log, a fixed-size response histogram per core. The guard is on total
// allocated bytes over the whole run: a fraction of a byte per request.
func TestStreamingClusterConstantMemory(t *testing.T) {
	n := 10_000_000
	if testing.Short() {
		n = 500_000
	}
	app := workload.Masstree()
	sc, err := workload.ScenarioByName("diurnal")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Cores = 4
	cfg.Dispatcher = NewJSQ()
	cfg.Core.DropCompletions = true

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
	// Setup (engine, cores, histograms) is fixed-size; everything per
	// request is pooled. Allow 2 MB of slack for the runtime itself —
	// at 10M requests that is 0.2 bytes/request, which no per-request
	// []Request or completion log could hide under. (Race-instrumented
	// builds allocate per instrumentation point, so the byte guard only
	// holds uninstrumented.)
	if delta := m1.TotalAlloc - m0.TotalAlloc; !raceEnabled && delta > 2<<20 {
		t.Errorf("streaming run allocated %.2f MB total (%.2f B/request) — memory not independent of request count",
			float64(delta)/1e6, float64(delta)/float64(n))
	}
}
