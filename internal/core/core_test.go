package core

import (
	"math"
	"math/rand"
	"testing"

	"rubik/internal/cpu"
	"rubik/internal/queueing"
	"rubik/internal/sim"
	"rubik/internal/stats"
	"rubik/internal/workload"
)

func TestTableBuilderValidation(t *testing.T) {
	if _, err := NewTableBuilder(1.5, 128, 8, 16); err == nil {
		t.Fatal("bad percentile must error")
	}
	if _, err := NewTableBuilder(0.95, 0, 8, 16); err == nil {
		t.Fatal("zero buckets must error")
	}
	if _, err := NewTableBuilder(0.95, 128, 0, 16); err == nil {
		t.Fatal("zero rows must error")
	}
	if _, err := NewTableBuilder(0.95, 128, 8, 0); err == nil {
		t.Fatal("zero queue must error")
	}
	b, err := NewTableBuilder(0.95, 128, 8, 16)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := b.Rebuild(stats.NewHistogram(16), stats.NewHistogram(16)); err == nil {
		t.Fatal("empty profiles must error")
	}
}

func TestTailTableConstantService(t *testing.T) {
	// With constant work, c_i must be ~ (i+1) * work (within bucketing).
	comp := make([]float64, 100)
	mem := make([]float64, 100)
	for i := range comp {
		comp[i] = 10000
		mem[i] = 500
	}
	tab := sampleTable(t, comp, mem, 0.95, 128, 8, 16)
	for i := 0; i < 16; i++ {
		ci, mi := tab.Lookup(0, i)
		wantC := 10000 * float64(i+1)
		wantM := 500 * float64(i+1)
		if math.Abs(ci-wantC) > 0.02*wantC+2 {
			t.Fatalf("c_%d = %v, want ~%v", i, ci, wantC)
		}
		if math.Abs(mi-wantM) > 0.02*wantM+2 {
			t.Fatalf("m_%d = %v, want ~%v", i, mi, wantM)
		}
	}
}

func TestTailTableMonotoneInQueuePosition(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	comp := make([]float64, 3000)
	mem := make([]float64, 3000)
	for i := range comp {
		comp[i] = 50000 + r.ExpFloat64()*20000
		mem[i] = 1000 + r.ExpFloat64()*500
	}
	tab := sampleTable(t, comp, mem, 0.95, 128, 8, 16)
	for row := 0; row < tab.Rows(); row++ {
		prevC, prevM := 0.0, 0.0
		for i := 0; i < 24; i++ { // crosses into the Gaussian extension
			ci, mi := tab.Lookup(row, i)
			if ci <= prevC {
				t.Fatalf("row %d: c_%d=%v not increasing (prev %v)", row, i, ci, prevC)
			}
			if mi <= prevM {
				t.Fatalf("row %d: m_%d=%v not increasing (prev %v)", row, i, mi, prevM)
			}
			prevC, prevM = ci, mi
		}
	}
}

func TestTailTableGaussianExtensionContinuity(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	comp := make([]float64, 5000)
	mem := make([]float64, 5000)
	for i := range comp {
		comp[i] = 100000 * math.Exp(r.NormFloat64()*0.2)
		mem[i] = 2000 * math.Exp(r.NormFloat64()*0.2)
	}
	tab := sampleTable(t, comp, mem, 0.95, 128, 8, 16)
	// The convolved tail at i=15 and the Gaussian at i=16 should differ by
	// roughly one mean service (CLT has converged well by 15 summands).
	c15, _ := tab.Lookup(0, 15)
	c16, _ := tab.Lookup(0, 16)
	gap := c16 - c15
	if gap < 0.3*tab.meanC || gap > 2.5*tab.meanC {
		t.Fatalf("extension discontinuity: c15=%v c16=%v meanC=%v", c15, c16, tab.meanC)
	}
}

func TestTailTableRowSelection(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	comp := make([]float64, 4000)
	mem := make([]float64, 4000)
	for i := range comp {
		comp[i] = 1000 + 9000*r.Float64()
		mem[i] = 100
	}
	tab := sampleTable(t, comp, mem, 0.95, 128, 8, 16)
	if got := tab.RowFor(0); got != 0 {
		t.Fatalf("RowFor(0) = %d", got)
	}
	if got := tab.RowFor(1e12); got != tab.Rows()-1 {
		t.Fatalf("RowFor(huge) = %d, want last row", got)
	}
	// Monotone in omega.
	prev := 0
	for w := 0.0; w < 12000; w += 100 {
		row := tab.RowFor(w)
		if row < prev {
			t.Fatalf("row decreased: omega=%v row=%d prev=%d", w, row, prev)
		}
		prev = row
	}
	// More elapsed work => less remaining tail work at position 0.
	c0lo, _ := tab.Lookup(0, 0)
	c0hi, _ := tab.Lookup(tab.Rows()-1, 0)
	if c0hi >= c0lo {
		t.Fatalf("conditioning did not shrink remaining work: %v vs %v", c0hi, c0lo)
	}
}

func TestTailTableLookupClamps(t *testing.T) {
	comp := []float64{1, 2, 3, 4, 5}
	tab := sampleTable(t, comp, comp, 0.9, 16, 4, 4)
	// Out-of-range rows clamp instead of panicking.
	a, _ := tab.Lookup(-5, 0)
	b, _ := tab.Lookup(0, 0)
	if a != b {
		t.Fatal("negative row must clamp to 0")
	}
	c, _ := tab.Lookup(99, 0)
	d, _ := tab.Lookup(tab.Rows()-1, 0)
	if c != d {
		t.Fatal("overlarge row must clamp to last")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("zero config must error")
	}
	cfg := DefaultConfig(1e6)
	cfg.TailPercentile = 1.5
	if _, err := New(cfg); err == nil {
		t.Fatal("bad percentile must error")
	}
	cfg = DefaultConfig(1e6)
	cfg.HistoryCap = 1
	if _, err := New(cfg); err == nil {
		t.Fatal("HistoryCap < MinSamples must error")
	}
	cfg = DefaultConfig(1e6)
	cfg.Buckets = 0
	if _, err := New(cfg); err == nil {
		t.Fatal("zero buckets must error")
	}
}

// TestHostileConfigsRejected feeds New and NewTableBuilder the values a
// NaN-blind `x <= 0` check lets through.
func TestHostileConfigsRejected(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name string
		edit func(*Config)
	}{
		{"NaN percentile", func(c *Config) { c.TailPercentile = nan }},
		{"NaN bound", func(c *Config) { c.LatencyBoundNs = nan }},
		{"+Inf bound", func(c *Config) { c.LatencyBoundNs = inf }},
		{"-Inf bound", func(c *Config) { c.LatencyBoundNs = -inf }},
		{"NaN drift threshold", func(c *Config) { c.DriftThreshold = nan }},
		{"negative drift threshold", func(c *Config) { c.DriftThreshold = -0.01 }},
		{"zero update period", func(c *Config) { c.UpdatePeriod = 0 }},
		{"negative update period", func(c *Config) { c.UpdatePeriod = -sim.Millisecond }},
		{"negative transition latency", func(c *Config) { c.TransitionLatency = -sim.Microsecond }},
	} {
		cfg := DefaultConfig(1e6)
		tc.edit(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: New accepted the config", tc.name)
		}
	}
	for _, p := range []float64{nan, inf, -inf, 0, 1} {
		if _, err := NewTableBuilder(p, 128, 8, 16); err == nil {
			t.Errorf("NewTableBuilder accepted percentile %v", p)
		}
	}
}

// TestFeedbackConfigValidation pins which PI settings New accepts when
// feedback is on. Unchecked, a NaN gain pins every decision to the grid
// minimum and a non-positive window silently disables feedback.
func TestFeedbackConfigValidation(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name string
		edit func(*FeedbackConfig)
		ok   bool
	}{
		{"default", func(*FeedbackConfig) {}, true},
		{"MinScale 0.25 (coloc, datacenter)", func(f *FeedbackConfig) { f.MinScale = 0.25 }, true},
		{"zero gains", func(f *FeedbackConfig) { f.Kp, f.Ki = 0, 0 }, true},
		{"MinScale == MaxScale", func(f *FeedbackConfig) { f.MinScale, f.MaxScale = 1, 1 }, true},
		{"disabled ignores the rest", func(f *FeedbackConfig) { *f = FeedbackConfig{Kp: nan, Window: -1} }, true},
		{"zero window", func(f *FeedbackConfig) { f.Window = 0 }, false},
		{"negative window", func(f *FeedbackConfig) { f.Window = -sim.Second }, false},
		{"NaN Kp", func(f *FeedbackConfig) { f.Kp = nan }, false},
		{"NaN Ki", func(f *FeedbackConfig) { f.Ki = nan }, false},
		{"+Inf Kp", func(f *FeedbackConfig) { f.Kp = inf }, false},
		{"+Inf Ki", func(f *FeedbackConfig) { f.Ki = inf }, false},
		{"negative Kp", func(f *FeedbackConfig) { f.Kp = -0.3 }, false},
		{"negative Ki", func(f *FeedbackConfig) { f.Ki = -0.1 }, false},
		{"zero MinScale", func(f *FeedbackConfig) { f.MinScale = 0 }, false},
		{"negative MinScale", func(f *FeedbackConfig) { f.MinScale = -0.5 }, false},
		{"NaN MinScale", func(f *FeedbackConfig) { f.MinScale = nan }, false},
		{"NaN MaxScale", func(f *FeedbackConfig) { f.MaxScale = nan }, false},
		{"+Inf MaxScale", func(f *FeedbackConfig) { f.MaxScale = inf }, false},
		{"MinScale > MaxScale", func(f *FeedbackConfig) { f.MinScale, f.MaxScale = 1.5, 0.5 }, false},
	} {
		cfg := DefaultConfig(1e6)
		tc.edit(&cfg.Feedback)
		_, err := New(cfg)
		if (err == nil) != tc.ok {
			t.Errorf("%s: New error %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

func TestRubikDecisionLogic(t *testing.T) {
	cfg := DefaultConfig(2e6) // 2 ms bound
	cfg.Feedback.Enabled = false
	cfg.TransitionLatency = 0
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Empty queue: park at minimum.
	if f := r.OnEvent(queueing.View{Now: 0}); f != cfg.Grid.Min() {
		t.Fatalf("idle decision = %d, want min", f)
	}
	// Untrained with work queued: nominal.
	v := queueing.View{Now: 0, Queue: []queueing.QueuedRequest{{Arrival: 0}}}
	if f := r.OnEvent(v); f != cpu.NominalMHz {
		t.Fatalf("untrained decision = %d, want nominal", f)
	}
	// Train on constant work: 480k cycles, zero memory.
	comp := make([]float64, 100)
	mem := make([]float64, 100)
	for i := range comp {
		comp[i] = 480_000
		mem[i] = 0
	}
	if err := r.Bootstrap(comp, mem); err != nil {
		t.Fatal(err)
	}
	// One fresh request, full 2 ms headroom: need ~480000/2000us = 240 MHz
	// -> min step 800.
	if f := r.OnEvent(v); f != 800 {
		t.Fatalf("single fresh request decision = %d, want 800", f)
	}
	// A request that has waited 1.8 ms has 0.2 ms headroom:
	// 480k cycles / 200 us = 2400 MHz. The table's right-edge bucket
	// rounding may push the estimate one conservative step up.
	v2 := queueing.View{Now: 1_800_000, Queue: []queueing.QueuedRequest{{Arrival: 0}}}
	if f := r.OnEvent(v2); f < cpu.NominalMHz || f > cpu.NominalMHz+200 {
		t.Fatalf("tight headroom decision = %d, want 2400 (or 2600 after rounding)", f)
	}
	// No headroom: max frequency.
	v3 := queueing.View{Now: 3_000_000, Queue: []queueing.QueuedRequest{{Arrival: 0}}}
	if f := r.OnEvent(v3); f != cfg.Grid.Max() {
		t.Fatalf("negative headroom decision = %d, want max", f)
	}
	// Deeper queues need more cycles: frequency grows with queue length.
	prev := 0
	for q := 1; q <= 6; q++ {
		queue := make([]queueing.QueuedRequest, q)
		for i := range queue {
			queue[i] = queueing.QueuedRequest{Arrival: 0}
		}
		f := r.OnEvent(queueing.View{Now: 100_000, Queue: queue})
		if f < prev {
			t.Fatalf("frequency decreased with queue depth: q=%d f=%d prev=%d", q, f, prev)
		}
		prev = f
	}
}

func TestRubikMemoryTimeReducesHeadroom(t *testing.T) {
	cfg := DefaultConfig(2e6)
	cfg.Feedback.Enabled = false
	cfg.TransitionLatency = 0
	noMem, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	withMem, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	comp := make([]float64, 200)
	zero := make([]float64, 200)
	mem := make([]float64, 200)
	for i := range comp {
		comp[i] = 2_400_000
		zero[i] = 0
		mem[i] = 800_000 // 0.8 ms memory time eats most of the 2 ms bound
	}
	if err := noMem.Bootstrap(comp, zero); err != nil {
		t.Fatal(err)
	}
	if err := withMem.Bootstrap(comp, mem); err != nil {
		t.Fatal(err)
	}
	v := queueing.View{Now: 0, Queue: []queueing.QueuedRequest{{Arrival: 0}}}
	fNo := noMem.OnEvent(v)
	fMem := withMem.OnEvent(v)
	if fMem <= fNo {
		t.Fatalf("memory-bound time must force higher frequency: %d vs %d", fMem, fNo)
	}
}

// boundFor measures the paper's latency target: the p95 of fixed-frequency
// execution at 50% load.
func boundFor(t *testing.T, app workload.LCApp, n int, seed int64) float64 {
	t.Helper()
	tr := workload.GenerateAtLoad(app, 0.5, n, seed)
	res, err := queueing.Run(tr, queueing.FixedPolicy{MHz: cpu.NominalMHz}, queueing.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return res.TailNs(0.95, 0.1)
}

func runRubik(t *testing.T, app workload.LCApp, load, boundNs float64, n int, seed int64, feedback bool) queueing.Result {
	t.Helper()
	cfg := DefaultConfig(boundNs)
	cfg.Feedback.Enabled = feedback
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr := workload.GenerateAtLoad(app, load, n, seed)
	res, err := queueing.Run(tr, r, queueing.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRubikMeetsTailAndSavesPower(t *testing.T) {
	// The headline claim (paper Figs. 6 and 9): at loads <= 50%, Rubik
	// meets the tail bound while consuming less core energy than
	// fixed-frequency execution.
	apps := []workload.LCApp{workload.Masstree(), workload.Specjbb()}
	for _, app := range apps {
		bound := boundFor(t, app, 6000, 1)
		for _, load := range []float64{0.3, 0.5} {
			tr := workload.GenerateAtLoad(app, load, 6000, 2)
			fixed, err := queueing.Run(tr, queueing.FixedPolicy{MHz: cpu.NominalMHz}, queueing.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			res := runRubik(t, app, load, bound, 6000, 2, true)
			tail := res.TailNs(0.95, 0.15)
			if tail > bound*1.10 {
				t.Errorf("%s@%.0f%%: Rubik tail %.0f ns exceeds bound %.0f ns",
					app.Name, load*100, tail, bound)
			}
			if res.ActiveEnergyJ >= fixed.ActiveEnergyJ {
				t.Errorf("%s@%.0f%%: Rubik energy %.4f J >= fixed %.4f J",
					app.Name, load*100, res.ActiveEnergyJ, fixed.ActiveEnergyJ)
			}
		}
	}
}

func TestRubikNoFeedbackIsConservative(t *testing.T) {
	// Without feedback, the analytical model alone must keep the tail at
	// or below the bound (its approximations are conservative).
	app := workload.Masstree()
	bound := boundFor(t, app, 6000, 3)
	res := runRubik(t, app, 0.4, bound, 6000, 4, false)
	tail := res.TailNs(0.95, 0.15)
	if tail > bound*1.05 {
		t.Fatalf("no-feedback tail %.0f ns exceeds bound %.0f ns", tail, bound)
	}
}

func TestRubikSavesMoreAtLowerLoad(t *testing.T) {
	app := workload.Masstree()
	bound := boundFor(t, app, 6000, 5)
	lo := runRubik(t, app, 0.2, bound, 6000, 6, true)
	hi := runRubik(t, app, 0.6, bound, 6000, 6, true)
	if lo.EnergyPerRequestJ() >= hi.EnergyPerRequestJ() {
		t.Fatalf("energy/request at 20%% (%v) not below 60%% (%v)",
			lo.EnergyPerRequestJ(), hi.EnergyPerRequestJ())
	}
}

func TestRubikAdaptsToLoadStep(t *testing.T) {
	// Fig. 1b: when load steps up, Rubik immediately chooses higher
	// frequencies. Compare its mean frequency before and after the step.
	app := workload.Masstree()
	bound := boundFor(t, app, 6000, 7)
	rate30 := app.RateForLoad(0.3)
	rate70 := app.RateForLoad(0.7)
	step, err := workload.NewStepLoad(
		workload.Phase{Start: 0, RatePerSec: rate30},
		workload.Phase{Start: sim.Second, RatePerSec: rate70},
	)
	if err != nil {
		t.Fatal(err)
	}
	n := int(rate30 + rate70) // ~2 seconds worth
	tr := workload.Generate(app, step, n, 8)
	cfg := DefaultConfig(bound)
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	qcfg := queueing.DefaultConfig()
	qcfg.RecordTimeline = true
	res, err := queueing.Run(tr, r, qcfg)
	if err != nil {
		t.Fatal(err)
	}
	mean := func(from, to sim.Time) float64 {
		var wsum, tsum float64
		for i, fs := range res.FreqTimeline {
			end := res.EndTime
			if i+1 < len(res.FreqTimeline) {
				end = res.FreqTimeline[i+1].T
			}
			lo, hi := fs.T, end
			if lo < from {
				lo = from
			}
			if hi > to {
				hi = to
			}
			if hi > lo {
				wsum += float64(fs.MHz) * float64(hi-lo)
				tsum += float64(hi - lo)
			}
		}
		return wsum / tsum
	}
	before := mean(sim.Second/2, sim.Second)
	after := mean(sim.Second+sim.Second/4, 2*sim.Second)
	if after <= before*1.1 {
		t.Fatalf("mean frequency did not rise after load step: %.0f -> %.0f MHz", before, after)
	}
	// And the tail during the post-step window stays controlled.
	var post []float64
	for _, c := range res.Completions {
		if c.Done > sim.Second+200*sim.Millisecond {
			post = append(post, c.ResponseNs())
		}
	}
	if len(post) > 100 {
		tail := percentile(post, 0.95)
		if tail > bound*1.25 {
			t.Fatalf("post-step tail %.0f ns far above bound %.0f ns", tail, bound)
		}
	}
}

func percentile(xs []float64, q float64) float64 {
	cp := make([]float64, len(xs))
	copy(cp, xs)
	// insertion-free: use sort via stats? avoid import cycle—small local sort
	for i := 1; i < len(cp); i++ {
		for j := i; j > 0 && cp[j] < cp[j-1]; j-- {
			cp[j], cp[j-1] = cp[j-1], cp[j]
		}
	}
	idx := int(math.Ceil(q*float64(len(cp)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(cp) {
		idx = len(cp) - 1
	}
	return cp[idx]
}

func TestRubikFeedbackTightensConservatism(t *testing.T) {
	// With feedback, Rubik should consume no more energy than without
	// (the controller relaxes the internal target when the model is too
	// conservative) while keeping violations near the 5% budget.
	app := workload.Specjbb()
	bound := boundFor(t, app, 8000, 11)
	with := runRubik(t, app, 0.4, bound, 8000, 12, true)
	without := runRubik(t, app, 0.4, bound, 8000, 12, false)
	if with.ActiveEnergyJ > without.ActiveEnergyJ*1.02 {
		t.Fatalf("feedback increased energy: %.4f vs %.4f J",
			with.ActiveEnergyJ, without.ActiveEnergyJ)
	}
	if v := with.ViolationFrac(bound, 0.15); v > 0.08 {
		t.Fatalf("feedback violations %.3f exceed budget", v)
	}
}

func TestRubikHistoryCapBoundsMemory(t *testing.T) {
	cfg := DefaultConfig(1e6)
	cfg.HistoryCap = 100
	cfg.MinSamples = 10
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		r.ObserveCompletion(queueing.Completion{ComputeCycles: float64(i + 1), MemTime: 1})
	}
	if r.histC.Len() != 100 {
		t.Fatalf("history grew to %d", r.histC.Len())
	}
	// Most recent samples retained, oldest evicted.
	window := r.histC.Snapshot(nil)
	if window[99] != 1000 {
		t.Fatalf("newest sample lost: %v", window[99])
	}
	if window[0] != 901 {
		t.Fatalf("window start %v, want 901", window[0])
	}
}

// TestBootstrapValidation applies the trace loader's rule to bootstrap
// samples: compute cycles finite and > 0, memory time finite and >= 0. A
// rejected bootstrap profiles nothing and builds no table.
func TestBootstrapValidation(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name      string
		comp, mem []float64
	}{
		{"mismatched lengths", []float64{1, 2}, []float64{1}},
		{"negative work", []float64{-1, -5}, []float64{-1, 3}},
		{"zero cycles", []float64{1e5, 0}, []float64{10, 10}},
		{"negative memory time", []float64{1e5, 2e5}, []float64{10, -1}},
		{"NaN cycles", []float64{nan, 2e5}, []float64{10, 10}},
		{"NaN memory time", []float64{1e5, 2e5}, []float64{nan, 10}},
		{"infinite cycles", []float64{1e5, inf}, []float64{10, 10}},
		{"infinite memory time", []float64{1e5, 2e5}, []float64{10, inf}},
	} {
		r, err := New(DefaultConfig(1e6))
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Bootstrap(tc.comp, tc.mem); err == nil {
			t.Errorf("%s: Bootstrap(%v, %v) accepted", tc.name, tc.comp, tc.mem)
		}
		if r.Table() != nil {
			t.Errorf("%s: a rejected bootstrap built a table", tc.name)
		}
	}
	r, err := New(DefaultConfig(1e6))
	if err != nil {
		t.Fatal(err)
	}
	// Zero memory time is valid: purely compute-bound requests.
	if err := r.Bootstrap([]float64{1e5, 2e5}, []float64{10, 0}); err != nil {
		t.Fatal(err)
	}
	if r.Table() == nil {
		t.Fatal("bootstrap must build a table")
	}
	if r.TableBuilds() != 1 {
		t.Fatalf("builds = %d", r.TableBuilds())
	}
}
