// Package experiments contains one driver per table and figure of the
// paper's evaluation (Secs. 3, 5 and 7). Each driver regenerates the
// artifact's rows/series from the reproduction's simulators and returns a
// structured result with a formatted text rendering; DESIGN.md §5 maps the
// drivers to the paper artifacts and EXPERIMENTS.md records
// paper-vs-measured values.
package experiments

import (
	"fmt"
	"io"
	"strings"
	"text/tabwriter"

	rubikcore "rubik/internal/core"
	"rubik/internal/cpu"
	"rubik/internal/policy"
	"rubik/internal/queueing"
	"rubik/internal/sim"
	"rubik/internal/stats"
	"rubik/internal/workload"
)

// Options tunes experiment fidelity.
type Options struct {
	// Quick caps request counts so smoke tests and benchmarks finish fast;
	// full runs use the paper's Table 3 counts.
	Quick bool
	// Seed makes every experiment deterministic.
	Seed int64
	// Workers is the simulation fan-out: drivers shard their independent
	// (app, load, seed, scheme) cells across this many goroutines via
	// RunParallel. 0 means GOMAXPROCS; 1 runs sequentially. Results are
	// identical at any width.
	Workers int
}

// requests returns the trace length for an app under the options. The
// quick cap keeps smoke tests fast while leaving enough completions for
// stable p95 estimates and for Rubik's rolling feedback window to settle.
func (o Options) requests(app workload.LCApp) int {
	n := app.Requests
	if o.Quick && n > 2400 {
		return 2400
	}
	return n
}

// TailPercentile is the paper's tail definition (95th percentile).
const TailPercentile = 0.95

// Warmup is the fraction of completions discarded before measuring, so
// online-profiled policies are evaluated in steady state.
const Warmup = 0.1

// harness bundles the shared pieces: configuration, per-app bounds, traces.
type harness struct {
	opts   Options
	grid   cpu.Grid
	power  cpu.PowerModel
	qcfg   queueing.Config
	rcfg   policy.ReplayConfig
	bounds map[string]float64
}

func newHarness(opts Options) *harness {
	return &harness{
		opts:   opts,
		grid:   cpu.DefaultGrid(),
		power:  cpu.DefaultPowerModel(),
		qcfg:   queueing.DefaultConfig(),
		rcfg:   policy.DefaultReplayConfig(),
		bounds: map[string]float64{},
	}
}

// trace generates the canonical trace for (app, load) with an
// experiment-stable seed; all schemes replay the same trace, as in the
// paper's methodology.
func (h *harness) trace(app workload.LCApp, load float64) workload.Trace {
	return workload.GenerateAtLoad(app, load, h.opts.requests(app), h.opts.Seed+stableSeed(app.Name, load))
}

func stableSeed(name string, load float64) int64 {
	var s int64 = 17
	for i := 0; i < len(name); i++ {
		s = s*131 + int64(name[i])
	}
	return s + int64(load*1000)
}

// bound returns the app's tail latency bound: the p95 of fixed-nominal
// execution at 50% load (paper Sec. 5.2). No warmup trim: fixed-frequency
// execution has nothing to warm up, and using the full trace keeps the
// bound consistent with the oracle feasibility checks on the same trace
// (StaticOracle at 50% load then lands exactly on nominal).
func (h *harness) bound(app workload.LCApp) (float64, error) {
	if b, ok := h.bounds[app.Name]; ok {
		return b, nil
	}
	tr := h.trace(app, 0.5)
	res, err := queueing.Run(tr, queueing.FixedPolicy{MHz: cpu.NominalMHz}, h.qcfg)
	if err != nil {
		return 0, err
	}
	b := res.TailNs(TailPercentile, 0)
	h.bounds[app.Name] = b
	return b, nil
}

// rubikConfig is the Rubik controller config for a bound on the
// harness's grid and DVFS latency, with or without the feedback loop.
func (h *harness) rubikConfig(boundNs float64, feedback bool) rubikcore.Config {
	cfg := rubikcore.DefaultConfig(boundNs)
	cfg.Grid = h.grid
	cfg.TransitionLatency = h.qcfg.TransitionLatency
	cfg.Feedback.Enabled = feedback
	return cfg
}

// rubik builds a fresh Rubik controller for a bound.
func (h *harness) rubik(boundNs float64, feedback bool) (*rubikcore.Rubik, error) {
	return rubikcore.New(h.rubikConfig(boundNs, feedback))
}

// runRubik simulates a trace under a fresh Rubik controller.
func (h *harness) runRubik(tr workload.Trace, boundNs float64, feedback bool) (queueing.Result, error) {
	r, err := h.rubik(boundNs, feedback)
	if err != nil {
		return queueing.Result{}, err
	}
	return queueing.Run(tr, r, h.qcfg)
}

// table renders rows with tab alignment.
func table(w io.Writer, header []string, rows [][]string) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, strings.Join(header, "\t"))
	for _, r := range rows {
		fmt.Fprintln(tw, strings.Join(r, "\t"))
	}
	tw.Flush()
}

// rollingTail computes a (time, q-tail) series over completions using a
// trailing window, stepping by step — the paper's rolling 200 ms tail
// traces (Figs. 1b and 10).
func rollingTail(completions []queueing.Completion, window, step sim.Time, q float64) []TimePoint {
	if len(completions) == 0 {
		return nil
	}
	end := completions[len(completions)-1].Done
	var out []TimePoint
	lo := 0
	var buf []float64
	for t := step; t <= end; t += step {
		buf = buf[:0]
		for lo < len(completions) && completions[lo].Done <= t-window {
			lo++
		}
		for i := lo; i < len(completions) && completions[i].Done <= t; i++ {
			buf = append(buf, completions[i].ResponseNs)
		}
		if len(buf) == 0 {
			continue
		}
		out = append(out, TimePoint{T: t, V: stats.PercentileInPlace(buf, q)})
	}
	return out
}

// TimePoint is one sample of a time series.
type TimePoint struct {
	T sim.Time
	V float64
}

// rollingPower converts an energy timeline into a (time, watts) series over
// a trailing window.
func rollingPower(samples []queueing.EnergySample, window, step sim.Time, end sim.Time) []TimePoint {
	var out []TimePoint
	lo := 0
	var acc float64
	hi := 0
	for t := step; t <= end; t += step {
		for hi < len(samples) && samples[hi].T <= t {
			acc += samples[hi].J
			hi++
		}
		for lo < len(samples) && samples[lo].T <= t-window {
			acc -= samples[lo].J
			lo++
		}
		w := float64(window)
		if t < window {
			w = float64(t)
		}
		out = append(out, TimePoint{T: t, V: acc / (w / 1e9)})
	}
	return out
}

// meanOf averages a float slice (0 if empty).
func meanOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(ns float64) float64 { return ns / 1e6 }
