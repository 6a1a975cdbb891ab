package policy

import (
	"math"
	"testing"

	"rubik/internal/cpu"
	"rubik/internal/queueing"
	"rubik/internal/sim"
	"rubik/internal/stats"
	"rubik/internal/workload"
)

func TestViolationBudget(t *testing.T) {
	cases := []struct {
		n    int
		p    float64
		want int
	}{
		{100, 0.95, 5},
		{1000, 0.95, 50},
		{100, 0.99, 1},
		{10, 0.95, 0}, // ceil(9.5)=10 -> 0 may violate
		{20, 0.95, 1}, // ceil(19)=19 -> 1
		{100, 1.0, 0},
		{10, 0.50000001, 4}, // tail is the 6th of 10 values: 4 above it
		{0, 0.95, 0},
	}
	for _, c := range cases {
		if got := ViolationBudget(c.n, c.p); got != c.want {
			t.Errorf("ViolationBudget(%d, %v) = %d, want %d", c.n, c.p, got, c.want)
		}
	}
}

func TestReplayValidation(t *testing.T) {
	tr := workload.GenerateAtLoad(workload.Masstree(), 0.3, 10, 1)
	if _, err := Replay(tr, []int{2400}, DefaultReplayConfig()); err == nil {
		t.Fatal("length mismatch must error")
	}
	bad := UniformAssignment(10, 2400)
	bad[3] = 0
	if _, err := Replay(tr, bad, DefaultReplayConfig()); err == nil {
		t.Fatal("zero frequency must error")
	}
}

func TestReplayMatchesEventSimAtFixedFrequency(t *testing.T) {
	// The analytic replay and the event-driven simulator must agree when
	// frequency never changes — this ties the oracle evaluations to the
	// Rubik simulations.
	for _, app := range workload.Apps() {
		for _, f := range []int{1200, 2400, 3400} {
			tr := workload.GenerateAtLoad(app, 0.55, 800, 21)
			rep, err := Replay(tr, UniformAssignment(len(tr.Requests), f), DefaultReplayConfig())
			if err != nil {
				t.Fatal(err)
			}
			cfg := queueing.DefaultConfig()
			cfg.InitialMHz = f
			cfg.TransitionLatency = 0
			res, err := queueing.Run(tr, queueing.FixedPolicy{MHz: f}, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Completions) != len(rep.Dones) {
				t.Fatalf("%s@%d: request counts differ", app.Name, f)
			}
			for i, c := range res.Completions {
				if math.Abs(c.ResponseNs()-rep.ResponseNs(i)) > 4 {
					t.Fatalf("%s@%d req %d: sim %v vs replay %v ns",
						app.Name, f, i, c.ResponseNs(), rep.ResponseNs(i))
				}
			}
			if math.Abs(res.ActiveEnergyJ-rep.ActiveEnergyJ) > 1e-4*rep.ActiveEnergyJ {
				t.Fatalf("%s@%d: energy sim %v vs replay %v",
					app.Name, f, res.ActiveEnergyJ, rep.ActiveEnergyJ)
			}
		}
	}
}

// At a wake penalty reaching past the end of representable time, replay
// and the event-driven simulator both saturate every completion at
// math.MaxInt64 instead of wrapping it into the past, where responses
// went negative.
func TestReplaySaturatesLikeEventSim(t *testing.T) {
	tr := workload.GenerateAtLoad(workload.Masstree(), 0.5, 50, 1)
	cfg := DefaultReplayConfig()
	cfg.WakeLatency = math.MaxInt64
	rep, err := Replay(tr, UniformAssignment(len(tr.Requests), 2400), cfg)
	if err != nil {
		t.Fatal(err)
	}
	qcfg := queueing.DefaultConfig()
	qcfg.InitialMHz = 2400
	qcfg.TransitionLatency = 0
	qcfg.WakeLatency = math.MaxInt64
	res, err := queueing.Run(tr, queueing.FixedPolicy{MHz: 2400}, qcfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range res.Completions {
		if rep.Dones[i] != math.MaxInt64 || c.Done != math.MaxInt64 {
			t.Fatalf("req %d: replay done at %d, event sim at %d, want both %d",
				i, rep.Dones[i], c.Done, int64(math.MaxInt64))
		}
		if !(rep.ResponseNs(i) > 0) {
			t.Fatalf("req %d: replay response %v ns", i, rep.ResponseNs(i))
		}
	}
}

// TestReplayDerivedLatenciesMatchStored pins the latencies a replay
// derives from its completion times to float64(done - arrival) taken
// inside the replay loop, where each request's done and arrival are at
// hand: ResponseNs, ResponsesNs, TailNs and ViolationCount must read the
// same bits, including latencies at and beyond 2^53 ns (where float64
// stops representing every integer, so converting done and arrival
// separately would round differently) and completions saturated at
// math.MaxInt64.
func TestReplayDerivedLatenciesMatchStored(t *testing.T) {
	tr := workload.GenerateAtLoad(workload.Masstree(), 0.6, 400, 3)
	for _, wake := range []sim.Time{5 * sim.Microsecond, 1<<53 + 1, 3<<60 + 12345, math.MaxInt64} {
		cfg := DefaultReplayConfig()
		cfg.WakeLatency = wake
		freqs := UniformAssignment(len(tr.Requests), 2400)
		for i := range freqs {
			freqs[i] = 1200 + 200*(i%8)
		}
		rep, err := Replay(tr, freqs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		// The stored field, recomputed the way the replay loop filled it.
		stored := make([]float64, len(tr.Requests))
		donePrev := noPrev
		for i, req := range tr.Requests {
			done, _ := fifoStep(req, freqs[i], donePrev, cfg.WakeLatency)
			stored[i] = float64(done - req.Arrival)
			donePrev = done
		}
		derived := rep.ResponsesNs()
		for i, want := range stored {
			if got := rep.ResponseNs(i); math.Float64bits(got) != math.Float64bits(want) ||
				math.Float64bits(derived[i]) != math.Float64bits(want) {
				t.Fatalf("wake %d req %d: ResponseNs %v, ResponsesNs %v, stored %v", wake, i, got, derived[i], want)
			}
		}
		for _, q := range []float64{0, 0.5, 0.95, 0.99, 1} {
			if got, want := rep.TailNs(q), stats.Percentile(stored, q); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("wake %d: TailNs(%v) = %v, stored %v", wake, q, got, want)
			}
		}
		for _, bound := range []float64{0, stored[0], stats.Percentile(stored, 0.9), math.Inf(1)} {
			want := 0
			for _, v := range stored {
				if v > bound {
					want++
				}
			}
			if got := rep.ViolationCount(bound); got != want {
				t.Fatalf("wake %d: ViolationCount(%v) = %d, stored %d", wake, bound, got, want)
			}
		}
	}
}

// fixtures for oracle tests.
func oracleFixture(t *testing.T, app workload.LCApp, load float64, n int, seed int64) (workload.Trace, float64) {
	t.Helper()
	tr := workload.GenerateAtLoad(app, load, n, seed)
	// Bound: p95 of fixed-nominal at 50% load (paper Sec. 5.2).
	boundTr := workload.GenerateAtLoad(app, 0.5, n, seed+1000)
	rep, err := Replay(boundTr, UniformAssignment(n, cpu.NominalMHz), DefaultReplayConfig())
	if err != nil {
		t.Fatal(err)
	}
	return tr, rep.TailNs(0.95)
}

func TestStaticOracle(t *testing.T) {
	grid := cpu.DefaultGrid()
	tr, bound := oracleFixture(t, workload.Masstree(), 0.3, 4000, 3)
	res, err := StaticOracle(tr, grid, bound, 0.95, DefaultReplayConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatal("static oracle infeasible at 30% load")
	}
	if res.MHz >= cpu.NominalMHz {
		t.Fatalf("at 30%% load the oracle should run below nominal, chose %d", res.MHz)
	}
	// Minimality: one step lower must violate.
	idx := grid.Index(res.MHz)
	if idx > 0 {
		lower, err := Replay(tr, UniformAssignment(len(tr.Requests), grid.Step(idx-1)), DefaultReplayConfig())
		if err != nil {
			t.Fatal(err)
		}
		if lower.ViolationCount(bound) <= ViolationBudget(len(tr.Requests), 0.95) {
			t.Fatalf("frequency below the oracle's choice (%d) is also feasible", res.MHz)
		}
	}
	// Tail must meet the bound under the percentile definition.
	if res.Result.TailNs(0.95) > bound {
		t.Fatalf("oracle tail %v exceeds bound %v", res.Result.TailNs(0.95), bound)
	}
}

func TestStaticOracleInfeasibleAtOverload(t *testing.T) {
	grid := cpu.DefaultGrid()
	tr, bound := oracleFixture(t, workload.Masstree(), 0.97, 4000, 5)
	res, err := StaticOracle(tr, grid, bound, 0.95, DefaultReplayConfig())
	if err != nil {
		t.Fatal(err)
	}
	// 97% load at nominal capacity: even 3.4 GHz may not fix the tail; the
	// oracle must return max frequency and flag infeasibility, or meet the
	// bound at a high frequency.
	if !res.Feasible && res.MHz != grid.Max() {
		t.Fatalf("infeasible result must use max frequency, got %d", res.MHz)
	}
}

func TestStaticOracleEmptyTrace(t *testing.T) {
	if _, err := StaticOracle(workload.Trace{}, cpu.DefaultGrid(), 1e6, 0.95, DefaultReplayConfig()); err == nil {
		t.Fatal("empty trace must error")
	}
	if _, err := AdrenalineOracle(workload.Trace{}, cpu.DefaultGrid(), 1e6, 0.95, DefaultReplayConfig()); err == nil {
		t.Fatal("empty trace must error (adrenaline)")
	}
	if _, err := DynamicOracle(workload.Trace{}, cpu.DefaultGrid(), 1e6, 0.95, DefaultReplayConfig()); err == nil {
		t.Fatal("empty trace must error (dynamic)")
	}
}

// TestOraclesRejectBadTarget checks the oracles validate their tail
// target as core.New does: a NaN bound used to count no response as a
// violation and a NaN percentile let every response violate, so 800 MHz
// came back feasible.
func TestOraclesRejectBadTarget(t *testing.T) {
	tr := workload.GenerateAtLoad(workload.Masstree(), 0.5, 300, 1)
	grid, rcfg := cpu.DefaultGrid(), DefaultReplayConfig()
	oracles := []struct {
		name string
		run  func(bound, pct float64) error
	}{
		{"static", func(b, p float64) error { _, err := StaticOracle(tr, grid, b, p, rcfg); return err }},
		{"adrenaline", func(b, p float64) error { _, err := AdrenalineOracle(tr, grid, b, p, rcfg); return err }},
		{"dynamic", func(b, p float64) error { _, err := DynamicOracle(tr, grid, b, p, rcfg); return err }},
	}
	for _, c := range []struct{ bound, pct float64 }{
		{math.NaN(), 0.95}, {0, 0.95}, {-1e6, 0.95}, {math.Inf(1), 0.95}, {math.Inf(-1), 0.95},
		{1e6, math.NaN()}, {1e6, 0}, {1e6, 1}, {1e6, -0.5}, {1e6, 1.5}, {1e6, math.Inf(1)},
	} {
		for _, o := range oracles {
			if err := o.run(c.bound, c.pct); err == nil {
				t.Errorf("%s oracle accepted bound %v, percentile %v", o.name, c.bound, c.pct)
			}
		}
	}
	for _, o := range oracles {
		if err := o.run(1e6, 0.95); err != nil {
			t.Errorf("%s oracle rejected a valid target: %v", o.name, err)
		}
	}
}

func TestAdrenalineOracleBeatsOrMatchesStatic(t *testing.T) {
	grid := cpu.DefaultGrid()
	// specjbb has the long/short structure Adrenaline exploits.
	tr, bound := oracleFixture(t, workload.Specjbb(), 0.4, 6000, 7)
	st, err := StaticOracle(tr, grid, bound, 0.95, DefaultReplayConfig())
	if err != nil {
		t.Fatal(err)
	}
	ad, err := AdrenalineOracle(tr, grid, bound, 0.95, DefaultReplayConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !ad.Feasible {
		t.Fatal("adrenaline infeasible at 40% load")
	}
	// The sweep includes fLow = fHigh = staticF, so it can never be worse.
	if ad.Result.ActiveEnergyJ > st.Result.ActiveEnergyJ*1.0001 {
		t.Fatalf("adrenaline energy %v exceeds static %v",
			ad.Result.ActiveEnergyJ, st.Result.ActiveEnergyJ)
	}
	if ad.LowMHz > ad.HighMHz {
		t.Fatalf("boosted frequency below unboosted: %d > %d", ad.LowMHz, ad.HighMHz)
	}
	if ad.SweepEvaluated < 100 {
		t.Fatalf("sweep too small: %d", ad.SweepEvaluated)
	}
}

func TestDynamicOracle(t *testing.T) {
	grid := cpu.DefaultGrid()
	tr, bound := oracleFixture(t, workload.Masstree(), 0.4, 5000, 11)
	n := len(tr.Requests)
	dyn, err := DynamicOracle(tr, grid, bound, 0.95, DefaultReplayConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Budget: violations within the 5% the tail definition allows.
	if dyn.Violations > ViolationBudget(n, 0.95) {
		t.Fatalf("dynamic oracle violations %d exceed budget %d",
			dyn.Violations, ViolationBudget(n, 0.95))
	}
	if tail := dyn.Result.TailNs(0.95); tail > bound {
		t.Fatalf("dynamic oracle tail %v exceeds bound %v", tail, bound)
	}
	// All assigned frequencies must be on the grid.
	for i, f := range dyn.Freqs {
		if grid.Index(f) < 0 {
			t.Fatalf("request %d assigned off-grid frequency %d", i, f)
		}
	}
	// DynamicOracle is the strongest scheme: no worse than StaticOracle.
	st, err := StaticOracle(tr, grid, bound, 0.95, DefaultReplayConfig())
	if err != nil {
		t.Fatal(err)
	}
	if dyn.Result.ActiveEnergyJ > st.Result.ActiveEnergyJ*1.001 {
		t.Fatalf("dynamic energy %v exceeds static %v",
			dyn.Result.ActiveEnergyJ, st.Result.ActiveEnergyJ)
	}
}

func TestDynamicOracleSavesMoreAtHighLoad(t *testing.T) {
	// Paper Fig. 9b: at 50% load DynamicOracle often saves 20-45% of the
	// energy StaticOracle consumes.
	grid := cpu.DefaultGrid()
	tr, bound := oracleFixture(t, workload.Masstree(), 0.5, 5000, 13)
	st, err := StaticOracle(tr, grid, bound, 0.95, DefaultReplayConfig())
	if err != nil {
		t.Fatal(err)
	}
	dyn, err := DynamicOracle(tr, grid, bound, 0.95, DefaultReplayConfig())
	if err != nil {
		t.Fatal(err)
	}
	saving := 1 - dyn.Result.ActiveEnergyJ/st.Result.ActiveEnergyJ
	if saving < 0.10 {
		t.Fatalf("dynamic oracle saves only %.1f%% over static at 50%% load", saving*100)
	}
}

func TestPegasusTracksBound(t *testing.T) {
	app := workload.Masstree()
	tr, bound := oracleFixture(t, app, 0.3, 20000, 17)
	peg := NewPegasus(bound, cpu.DefaultGrid())
	res, err := queueing.Run(tr, peg, queueing.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Pegasus must save energy versus fixed-nominal...
	fixed, err := queueing.Run(tr, queueing.FixedPolicy{MHz: cpu.NominalMHz}, queueing.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.ActiveEnergyJ >= fixed.ActiveEnergyJ {
		t.Fatalf("pegasus energy %v not below fixed %v", res.ActiveEnergyJ, fixed.ActiveEnergyJ)
	}
	// ...while keeping the steady-state tail near the bound (generous
	// slack: it is a coarse feedback controller).
	if tail := res.TailNs(0.95, 0.5); tail > bound*1.2 {
		t.Fatalf("pegasus steady-state tail %v far above bound %v", tail, bound)
	}
}

// TestPegasusOffGridStart pins the first step on a grid without the
// nominal 2400 MHz step: Pegasus starts at the step nominal clamps up to
// (3000 MHz), and a tail above the high guard (but below the emergency
// 2x) keeps it there, at the top of the grid, rather than stepping from
// an unknown index to the grid minimum.
func TestPegasusOffGridStart(t *testing.T) {
	grid, err := cpu.NewGrid([]int{1000, 2000, 3000})
	if err != nil {
		t.Fatal(err)
	}
	const bound = 1e6
	peg := NewPegasus(bound, grid)
	if got := peg.OnEvent(queueing.View{}); got != 3000 {
		t.Fatalf("initial frequency %d, want 3000 (nominal clamped up)", got)
	}
	for i := 0; i < 16; i++ {
		peg.ObserveCompletion(queueing.Completion{Arrival: sim.Time(i) - 1.5*bound, Done: sim.Time(i)})
	}
	if got := peg.OnTick(queueing.View{Now: 16}); got != 3000 {
		t.Fatalf("tail at 1.5x the bound stepped to %d MHz, want 3000", got)
	}

	// A grid swapped in after construction leaves cur off-grid; the step
	// up starts from the step cur clamps up to.
	peg = NewPegasus(bound, cpu.DefaultGrid())
	peg.Grid = grid
	for i := 0; i < 16; i++ {
		peg.ObserveCompletion(queueing.Completion{Arrival: sim.Time(i) - 1.5*bound, Done: sim.Time(i)})
	}
	if got := peg.OnTick(queueing.View{Now: 16}); got != 3000 {
		t.Fatalf("off-grid cur: tail at 1.5x the bound stepped to %d MHz, want 3000", got)
	}
}

func TestStaticOracleMonotoneInBound(t *testing.T) {
	// Property: relaxing the latency bound can never raise the chosen
	// static frequency.
	grid := cpu.DefaultGrid()
	tr := workload.GenerateAtLoad(workload.Masstree(), 0.45, 3000, 19)
	base, err := Replay(tr, UniformAssignment(len(tr.Requests), cpu.NominalMHz), DefaultReplayConfig())
	if err != nil {
		t.Fatal(err)
	}
	ref := base.TailNs(0.95)
	prev := grid.Max() + 1
	for _, scale := range []float64{0.9, 1.0, 1.2, 1.5, 2.0, 3.0} {
		res, err := StaticOracle(tr, grid, ref*scale, 0.95, DefaultReplayConfig())
		if err != nil {
			t.Fatal(err)
		}
		if res.MHz > prev {
			t.Fatalf("bound %.1fx: frequency rose to %d (prev %d)", scale, res.MHz, prev)
		}
		prev = res.MHz
	}
}

func TestUniformAssignment(t *testing.T) {
	a := UniformAssignment(3, 2000)
	if len(a) != 3 || a[0] != 2000 || a[2] != 2000 {
		t.Fatalf("UniformAssignment = %v", a)
	}
}

func TestReplayResultHelpers(t *testing.T) {
	reqs := []workload.Request{{Arrival: 0}, {Arrival: 50}, {Arrival: 100}, {Arrival: 1000}}
	r := ReplayResult{Dones: []sim.Time{100, 250, 400, 1400}, ActiveEnergyJ: 2, requests: reqs}
	if got := r.TailNs(0.5); got != 200 {
		t.Fatalf("TailNs = %v", got)
	}
	if got := r.EnergyPerRequestJ(); got != 0.5 {
		t.Fatalf("EnergyPerRequestJ = %v", got)
	}
	if got := r.ViolationCount(250); got != 2 {
		t.Fatalf("ViolationCount = %v", got)
	}
	var empty ReplayResult
	if empty.EnergyPerRequestJ() != 0 {
		t.Fatal("empty result energy must be 0")
	}
}
