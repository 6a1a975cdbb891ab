package core

import (
	"fmt"
	"math"

	"rubik/internal/cpu"
	"rubik/internal/queueing"
	"rubik/internal/sim"
	"rubik/internal/stats"
)

// FeedbackConfig tunes Rubik's PI fine-tuning controller (paper Sec. 4.2):
// it observes the difference between the measured tail latency over a
// rolling window and the latency bound, and nudges Rubik's internal latency
// target. The analytical model is conservative, so adjustments are minor.
type FeedbackConfig struct {
	// Enabled turns the controller on.
	Enabled bool
	// Kp and Ki are the proportional and integral gains (unitless; they
	// act on the relative tail error).
	Kp, Ki float64
	// Window is the rolling measurement window (paper: 1 s).
	Window sim.Time
	// MinScale and MaxScale clamp the internal target relative to the
	// bound.
	MinScale, MaxScale float64
}

// DefaultFeedback returns the paper-like PI configuration.
func DefaultFeedback() FeedbackConfig {
	return FeedbackConfig{
		Enabled:  true,
		Kp:       0.3,
		Ki:       0.1,
		Window:   sim.Second,
		MinScale: 0.5,
		MaxScale: 1.5,
	}
}

// Config parameterizes a Rubik controller instance.
type Config struct {
	// LatencyBoundNs is the tail latency bound L.
	LatencyBoundNs float64
	// TailPercentile is the tail definition (paper: 0.95).
	TailPercentile float64
	// Grid is the DVFS frequency grid.
	Grid cpu.Grid
	// UpdatePeriod is the table refresh cadence (paper: 100 ms).
	UpdatePeriod sim.Time
	// Buckets is the distribution resolution (paper: 128).
	Buckets int
	// OmegaRows is the number of elapsed-work rows (paper: octiles = 8).
	// One row disables the elapsed-work conditioning: every lookup is
	// conditioned at zero progress (the ablation's "no omega rows").
	OmegaRows int
	// MaxTableQueue is the number of explicit queue positions (paper: 16).
	MaxTableQueue int
	// TransitionLatency is the DVFS actuation lag Rubik subtracts from the
	// headroom of every constraint so that in-flight work cannot miss the
	// tail while a switch is pending.
	TransitionLatency sim.Time
	// MinSamples is the minimum number of profiled requests before the
	// first table build; until then Rubik runs at nominal frequency.
	MinSamples int
	// HistoryCap bounds the profiling sample window (most recent wins), so
	// the model tracks service-time drift.
	HistoryCap int
	// DriftThreshold gates the periodic table rebuild: when both profiled
	// distributions have moved less than this relative amount (in mean and
	// standard deviation) since the last full rebuild, the refresh keeps
	// the existing tables and skips the rebuild. 0 (the default)
	// disables the gate, making results byte-identical to the always-
	// rebuild pipeline; small values (e.g. 0.02) drop the dominant refresh
	// cost at steady load at the price of reacting one threshold-crossing
	// later to workload drift.
	DriftThreshold float64
	// Feedback configures the PI fine-tuning loop.
	Feedback FeedbackConfig

	// Ablation knobs. All default to false (= the full Rubik design); the
	// ablation experiment flips them one at a time to quantify what each
	// design choice buys (see experiments.Ablation).

	// MergeMemory folds memory-bound time into compute cycles at nominal
	// frequency — i.e., assumes DVFS scales all work, the mis-modeling the
	// paper's C/M split exists to avoid (Sec. 4.1, "Core DVFS and memory").
	MergeMemory bool
	// HeadOnly evaluates Eq. 2 for the in-service request only, ignoring
	// queued requests — the PACE-like, queuing-blind mode the paper argues
	// is insufficient for datacenter servers (Sec. 2.2).
	HeadOnly bool
}

// DefaultConfig returns the paper's Rubik parameters for a given latency
// bound.
func DefaultConfig(latencyBoundNs float64) Config {
	return Config{
		LatencyBoundNs:    latencyBoundNs,
		TailPercentile:    0.95,
		Grid:              cpu.DefaultGrid(),
		UpdatePeriod:      100 * sim.Millisecond,
		Buckets:           128,
		OmegaRows:         8,
		MaxTableQueue:     16,
		TransitionLatency: 4 * sim.Microsecond,
		MinSamples:        48,
		HistoryCap:        8192,
		Feedback:          DefaultFeedback(),
	}
}

// Rubik is the controller. It implements queueing.Policy (frequency
// decisions on every arrival/completion), queueing.Ticker (periodic table
// refresh + feedback), and queueing.CompletionObserver (online profiling).
type Rubik struct {
	cfg Config

	// Profiling history: streaming histograms over the most recent
	// HistoryCap samples (O(1) ingest; the old sample slices cost a full
	// window copy per completion once the window was full).
	histC *stats.Histogram
	histM *stats.Histogram

	// builder owns the table, the FFT plans, and every rebuild buffer for
	// the controller's lifetime, so steady-state refreshes allocate
	// nothing.
	builder *TableBuilder
	table   *TailTable
	// cache, when set, is the shared content-addressed rebuild cache the
	// builder consults (fleet mode: one per shard, handed to every
	// controller simulated on that shard's goroutine).
	cache *TableCache

	// Feedback state.
	respWindow *stats.RollingWindow
	integral   float64
	internalNs float64
}

var (
	_ queueing.Policy             = (*Rubik)(nil)
	_ queueing.Ticker             = (*Rubik)(nil)
	_ queueing.CompletionObserver = (*Rubik)(nil)
	_ queueing.SlackReporter      = (*Rubik)(nil)
)

// New validates the configuration and returns a Rubik controller.
func New(cfg Config) (*Rubik, error) {
	// The comparisons are written so that NaN fails them.
	if !(cfg.LatencyBoundNs > 0) || math.IsInf(cfg.LatencyBoundNs, 0) {
		return nil, fmt.Errorf("core: latency bound must be positive and finite, got %v", cfg.LatencyBoundNs)
	}
	if !(cfg.TailPercentile > 0 && cfg.TailPercentile < 1) {
		return nil, fmt.Errorf("core: tail percentile %v out of (0,1)", cfg.TailPercentile)
	}
	if cfg.UpdatePeriod <= 0 {
		// Rubik would never refresh its tables and silently hold nominal.
		return nil, fmt.Errorf("core: update period must be positive, got %v", cfg.UpdatePeriod)
	}
	if !(cfg.DriftThreshold >= 0) {
		return nil, fmt.Errorf("core: drift threshold must be >= 0, got %v", cfg.DriftThreshold)
	}
	if cfg.TransitionLatency < 0 {
		return nil, fmt.Errorf("core: transition latency must be >= 0, got %d ns", cfg.TransitionLatency)
	}
	if cfg.Grid.Len() == 0 {
		return nil, fmt.Errorf("core: empty frequency grid")
	}
	if cfg.Buckets <= 0 || cfg.OmegaRows <= 0 || cfg.MaxTableQueue <= 0 {
		return nil, fmt.Errorf("core: non-positive table dimensions")
	}
	if cfg.HistoryCap < cfg.MinSamples {
		return nil, fmt.Errorf("core: HistoryCap %d below MinSamples %d", cfg.HistoryCap, cfg.MinSamples)
	}
	if fb := cfg.Feedback; fb.Enabled {
		if fb.Window <= 0 {
			// The window would hold no samples and feedback never act.
			return nil, fmt.Errorf("core: feedback window must be positive, got %v", fb.Window)
		}
		if !(fb.Kp >= 0) || math.IsInf(fb.Kp, 0) || !(fb.Ki >= 0) || math.IsInf(fb.Ki, 0) {
			return nil, fmt.Errorf("core: feedback gains must be finite and >= 0, got Kp %v Ki %v", fb.Kp, fb.Ki)
		}
		if !(fb.MinScale > 0 && fb.MinScale <= fb.MaxScale) || math.IsInf(fb.MaxScale, 0) {
			return nil, fmt.Errorf("core: feedback scale clamp [%v, %v] must be finite, positive and ordered",
				fb.MinScale, fb.MaxScale)
		}
	}
	r := &Rubik{
		cfg:        cfg,
		histC:      stats.NewHistogram(cfg.HistoryCap),
		histM:      stats.NewHistogram(cfg.HistoryCap),
		internalNs: cfg.LatencyBoundNs,
	}
	if cfg.Feedback.Enabled {
		r.respWindow = stats.NewRollingWindow(cfg.Feedback.Window)
	}
	return r, nil
}

// Name implements queueing.Policy; ablation variants are labeled.
func (r *Rubik) Name() string {
	switch {
	case r.cfg.HeadOnly:
		return "rubik-headonly"
	case r.cfg.MergeMemory:
		return "rubik-nomemsplit"
	case r.cfg.OmegaRows == 1:
		return "rubik-singlerow"
	case !r.cfg.Feedback.Enabled:
		return "rubik-nofb"
	case r.cfg.DriftThreshold > 0:
		return "rubik-driftgate"
	}
	return "rubik"
}

// Bootstrap seeds the profiler with historical (computeCycles, memTimeNs)
// samples and builds the first table immediately. Useful to warm-start a
// controller from a previous run's profile. Samples follow the rule
// loaded traces do: compute cycles finite and positive, memory time
// finite and nonnegative.
func (r *Rubik) Bootstrap(computeSamples, memSamples []float64) error {
	if len(computeSamples) != len(memSamples) {
		return fmt.Errorf("core: bootstrap sample lengths differ: %d vs %d",
			len(computeSamples), len(memSamples))
	}
	for i, c := range computeSamples {
		m := memSamples[i]
		if !(c > 0) || math.IsInf(c, 1) || !(m >= 0) || math.IsInf(m, 1) {
			return fmt.Errorf("core: bootstrap sample %d (%v cycles, %v ns memory) "+
				"needs finite cycles > 0 and memory time >= 0", i, c, m)
		}
	}
	for i := range computeSamples {
		r.histC.Push(computeSamples[i])
		r.histM.Push(memSamples[i])
	}
	return r.rebuild()
}

// ObserveCompletion implements queueing.CompletionObserver: it profiles the
// request's compute cycles and memory time (the CPI-stack measurement of
// paper Sec. 4.2) and feeds the measured response latency to the feedback
// window.
func (r *Rubik) ObserveCompletion(c queueing.Completion) {
	cc := c.ComputeCycles
	mt := float64(c.MemTime)
	if r.cfg.MergeMemory {
		// Ablation: pretend all work scales with frequency.
		cc += mt * float64(cpu.NominalMHz) / 1000
		mt = 0
	}
	r.histC.Push(cc)
	r.histM.Push(mt)
	if r.respWindow != nil {
		r.respWindow.Add(c.Done, c.ResponseNs())
	}
}

// TickEvery implements queueing.Ticker.
func (r *Rubik) TickEvery() sim.Time { return r.cfg.UpdatePeriod }

// OnTick implements queueing.Ticker: refresh the target tail tables from
// the current profile, run the feedback update, and re-evaluate the
// frequency for the current queue state.
func (r *Rubik) OnTick(v queueing.View) int {
	if r.histC.Len() >= r.cfg.MinSamples {
		// Rebuild errors can only stem from degenerate sample sets; keep
		// the previous table in that case.
		_ = r.rebuild()
	}
	r.updateFeedback(v.Now)
	return r.OnEvent(v)
}

// rebuild refreshes the target tail tables through the controller's
// persistent TableBuilder — created on first use and kept for the
// controller's lifetime, so every refresh after the first performs zero
// steady-state allocations.
func (r *Rubik) rebuild() error {
	if r.builder == nil {
		b, err := NewTableBuilder(r.cfg.TailPercentile, r.cfg.Buckets, r.cfg.OmegaRows, r.cfg.MaxTableQueue)
		if err != nil {
			return err
		}
		b.DriftThreshold = r.cfg.DriftThreshold
		b.Cache = r.cache
		r.builder = b
	}
	t, _, err := r.builder.Rebuild(r.histC, r.histM)
	if err != nil {
		return err
	}
	r.table = t
	return nil
}

// updateFeedback nudges the internal latency target toward the measured
// tail (PI on the relative error, clamped).
func (r *Rubik) updateFeedback(now sim.Time) {
	if !r.cfg.Feedback.Enabled || r.respWindow == nil {
		return
	}
	r.respWindow.AdvanceTo(now)
	if r.respWindow.Len() < 16 {
		return
	}
	measured := r.respWindow.Percentile(r.cfg.TailPercentile)
	bound := r.cfg.LatencyBoundNs
	err := (bound - measured) / bound // >0: under target, can relax
	r.integral += err
	fb := r.cfg.Feedback
	// Anti-windup: keep the integral inside the range it can act on.
	maxI := (fb.MaxScale - 1) / maxFloat(fb.Ki, 1e-9)
	if r.integral > maxI {
		r.integral = maxI
	}
	if r.integral < -maxI {
		r.integral = -maxI
	}
	scale := 1 + fb.Kp*err + fb.Ki*r.integral
	if scale < fb.MinScale {
		scale = fb.MinScale
	}
	if scale > fb.MaxScale {
		scale = fb.MaxScale
	}
	r.internalNs = bound * scale
}

func maxFloat(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// OnEvent implements queueing.Policy: paper Eq. 2 over the current queue.
// The queue snapshot is read synchronously and never retained, per the
// queueing.View contract (the core reuses the snapshot buffer).
//
// The DVFS actuation lag is charged only when satisfying the constraints
// requires switching *up*: staying at the current frequency involves no
// transition, and switching down keeps the (faster) old frequency until
// the transition lands, so neither can miss a deadline because of lag.
// This matters on real hardware, where the paper observed 130 us
// transitions (Sec. 5.5).
func (r *Rubik) OnEvent(v queueing.View) int {
	if len(v.Queue) == 0 {
		if r.table == nil {
			return r.cfg.Grid.Min()
		}
		// Nothing in flight: the core sleeps, so the parked frequency is
		// free — park at what a fresh arrival will need. With fast
		// transitions this is near-irrelevant (the arrival re-decides
		// immediately); with slow transitions (the 130 us of Sec. 5.5) it
		// keeps the wake-up from running at the minimum frequency for a
		// whole transition.
		c0, m0 := r.table.Lookup(0, 0)
		headroom := r.internalNs - m0 - float64(r.cfg.TransitionLatency)
		if headroom <= 0 {
			return r.cfg.Grid.Max()
		}
		return r.cfg.Grid.ClampUp(c0 * 1000 / headroom)
	}
	if r.table == nil {
		// Not yet profiled: hold nominal, the safe default the paper's
		// latency bounds are defined against.
		return cpu.NominalMHz
	}
	// One walk evaluates Eq. 2 twice: without a headroom penalty (need0)
	// and charging the transition lag (needLag). It stops where a
	// request has no headroom even without the penalty; the lag
	// constraint fails earlier when some request's headroom does not
	// cover the lag.
	t := r.table
	row := t.RowFor(v.HeadElapsedCycles)
	if !t.ready[row] {
		t.materializeRow(row)
	}
	lag := float64(r.cfg.TransitionLatency)
	limit := len(v.Queue)
	if r.cfg.HeadOnly && limit > 1 {
		limit = 1 // ablation: queuing-blind
	}
	var need0, needLag float64
	okLag := true
	for i := 0; i < limit; i++ {
		ti := float64(v.Now - v.Queue[i].Arrival)
		var ci, mi float64
		if i < t.built { // materialized: skip Lookup's checks
			ci, mi = t.entry(row, i)
		} else {
			ci, mi = t.Lookup(row, i)
		}
		h0 := r.internalNs - ti - mi
		if h0 <= 0 {
			return r.cfg.Grid.Max()
		}
		if f := ci * 1000 / h0; f > need0 {
			need0 = f
		}
		if !okLag {
			continue
		}
		if hLag := h0 - lag; hLag <= 0 {
			okLag = false
		} else if f := ci * 1000 / hLag; f > needLag {
			needLag = f
		}
	}
	if r.cfg.Grid.ClampUp(need0) <= v.CurrentMHz {
		// The current frequency satisfies the bound without switching.
		// Down-switching is also safe (the old, faster frequency applies
		// until the transition completes), but the post-switch frequency
		// must satisfy the lag-adjusted constraint.
		if !okLag {
			return v.CurrentMHz
		}
		return min(r.cfg.Grid.ClampUp(needLag), v.CurrentMHz)
	}
	// An up-switch is needed: the old (slower) frequency applies during
	// the transition, so the target must satisfy the lag-adjusted
	// constraint.
	if !okLag {
		return r.cfg.Grid.Max()
	}
	return r.cfg.Grid.ClampUp(needLag)
}

// PredictedSlackNs implements queueing.SlackReporter: the smallest tail
// headroom across the queued requests at the core's *current* frequency —
// how much slower the tightest constraint of paper Eq. 2 could finish and
// still make the (feedback-adjusted) bound. Power-budget coordinators use
// it to pick which cores donate frequency first under a binding cap. An
// empty queue reports the headroom a fresh arrival would see; before the
// first table build the slack is unknown and reported as 0, so capped
// bootstrapping cores never volunteer to donate.
func (r *Rubik) PredictedSlackNs(v queueing.View) float64 {
	if r.table == nil {
		return 0
	}
	f := float64(v.CurrentMHz)
	if f <= 0 {
		return 0
	}
	if len(v.Queue) == 0 {
		c0, m0 := r.table.Lookup(0, 0)
		return maxFloat(r.internalNs-m0-c0*1000/f, 0)
	}
	row := r.table.RowFor(v.HeadElapsedCycles)
	slack := r.internalNs
	for i := range v.Queue {
		ti := float64(v.Now - v.Queue[i].Arrival)
		ci, mi := r.table.Lookup(row, i)
		if s := r.internalNs - ti - mi - ci*1000/f; s < slack {
			slack = s
		}
	}
	return maxFloat(slack, 0)
}

// Table returns the current target tail table (nil before first build).
// Its Lookup fills columns on first use, so like the controller it must
// not be read from another goroutine while the controller runs.
func (r *Rubik) Table() *TailTable { return r.table }

// TableBuilds returns how many refreshes replaced the tables, by a full
// rebuild or a copy from the shared rebuild cache.
func (r *Rubik) TableBuilds() int {
	if r.builder == nil {
		return 0
	}
	return r.builder.Builds() + r.builder.CacheHits()
}

// TableSkips returns how many periodic refreshes the drift gate
// short-circuited (always 0 with Config.DriftThreshold == 0).
func (r *Rubik) TableSkips() int {
	if r.builder == nil {
		return 0
	}
	return r.builder.Skips()
}

// SetTableCache shares a content-addressed rebuild cache with the
// controller: periodic refreshes whose profile inputs match a cached
// rebuild bit for bit copy the cached table instead of rebuilding its
// rows, with bitwise-identical results. The cache is confined to
// one goroutine — attach the same cache only to controllers simulated on
// the same event loop (cluster.Config.TableCache does this per cluster,
// cluster.RunFleet per shard). Call before simulation starts; nil
// detaches. Implements cluster.TableCacheUser.
func (r *Rubik) SetTableCache(c *TableCache) {
	r.cache = c
	if r.builder != nil {
		r.builder.Cache = c
	}
}

// TableCacheHits returns how many refreshes the shared rebuild cache
// answered (always 0 without SetTableCache).
func (r *Rubik) TableCacheHits() int {
	if r.builder == nil {
		return 0
	}
	return r.builder.CacheHits()
}
