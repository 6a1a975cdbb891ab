package experiments

import (
	"fmt"
	"io"

	"rubik/internal/policy"
	"rubik/internal/queueing"
	"rubik/internal/sim"
	"rubik/internal/workload"
)

// Fig1aResult reproduces Fig. 1a: core energy per request for StaticOracle
// and Rubik on masstree at 30/40/50% load.
type Fig1aResult struct {
	Loads []float64
	// EnergyMJPerReq[scheme][i] is mJ/request at Loads[i].
	StaticOracle []float64
	Rubik        []float64
	BoundMs      float64
}

// Fig1a runs the teaser comparison.
func Fig1a(opts Options) (*Fig1aResult, error) {
	h := newHarness(opts)
	app := workload.Masstree()
	bound, err := h.bound(app)
	if err != nil {
		return nil, err
	}
	out := &Fig1aResult{Loads: []float64{0.3, 0.4, 0.5}, BoundMs: ms(bound)}
	for _, load := range out.Loads {
		tr := h.trace(app, load)
		so, err := policy.StaticOracle(tr, h.grid, bound, TailPercentile, h.rcfg)
		if err != nil {
			return nil, err
		}
		out.StaticOracle = append(out.StaticOracle, so.Result.EnergyPerRequestJ()*1e3)
		res, err := h.runRubik(tr, bound, true)
		if err != nil {
			return nil, err
		}
		out.Rubik = append(out.Rubik, res.EnergyPerRequestJ()*1e3)
	}
	return out, nil
}

// Render writes the energy table.
func (r *Fig1aResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Fig 1a — masstree core energy per request (mJ/req), tail bound %.3f ms\n", r.BoundMs)
	var rows [][]string
	for i, load := range r.Loads {
		saving := 1 - r.Rubik[i]/r.StaticOracle[i]
		rows = append(rows, []string{
			fmt.Sprintf("%.0f%%", load*100),
			fmt.Sprintf("%.3f", r.StaticOracle[i]),
			fmt.Sprintf("%.3f", r.Rubik[i]),
			fmt.Sprintf("%.0f%%", saving*100),
		})
	}
	table(w, []string{"load", "StaticOracle", "Rubik", "Rubik saving"}, rows)
}

// Fig1bResult reproduces Fig. 1b: the response of Rubik and StaticOracle to
// a 30%→50% load step at t = 1 s (input load, rolling tail latency, and
// Rubik's frequency choices over time).
type Fig1bResult struct {
	BoundMs float64
	// Sampled every 100 ms.
	Times          []sim.Time
	LoadQPS        []float64
	RubikTailMs    []float64
	StaticTailMs   []float64
	RubikFreqGHz   []float64 // time-weighted mean over each sample step
	StaticMHz      int
	RubikViolFrac  float64
	StaticViolFrac float64
}

// Fig1b runs the load-step teaser on masstree.
func Fig1b(opts Options) (*Fig1bResult, error) {
	h := newHarness(opts)
	app := workload.Masstree()
	bound, err := h.bound(app)
	if err != nil {
		return nil, err
	}
	r30 := app.RateForLoad(0.3)
	r50 := app.RateForLoad(0.5)
	step, err := workload.NewStepLoad(
		workload.Phase{Start: 0, RatePerSec: r30},
		workload.Phase{Start: sim.Second, RatePerSec: r50},
	)
	if err != nil {
		return nil, err
	}
	n := int(r30 + r50) // ≈ 2 seconds of arrivals
	if opts.Quick {
		n = n / 2
	}
	tr := workload.Generate(app, step, n, opts.Seed+5)

	// StaticOracle configured for the 50%-load steady state (its setting
	// is derived from the bound-defining load and cannot adapt).
	steady := h.trace(app, 0.5)
	so, err := policy.StaticOracle(steady, h.grid, bound, TailPercentile, h.rcfg)
	if err != nil {
		return nil, err
	}
	soRep, err := policy.Replay(tr, policy.UniformAssignment(len(tr.Requests), so.MHz), h.rcfg)
	if err != nil {
		return nil, err
	}

	qcfg := h.qcfg
	qcfg.RecordTimeline = true
	rb, err := h.rubik(bound, true)
	if err != nil {
		return nil, err
	}
	rbRes, err := queueing.Run(tr, rb, qcfg)
	if err != nil {
		return nil, err
	}

	out := &Fig1bResult{BoundMs: ms(bound), StaticMHz: so.MHz}
	const stepT = 100 * sim.Millisecond
	const window = 200 * sim.Millisecond
	rbTail := rollingTail(rbRes.Completions, window, stepT, TailPercentile)
	soTail := rollingTail(replayCompletions(tr, soRep), window, stepT, TailPercentile)
	end := rbRes.EndTime
	for t := stepT; t <= end; t += stepT {
		out.Times = append(out.Times, t)
		out.LoadQPS = append(out.LoadQPS, qpsIn(tr, t-stepT, t))
		out.RubikTailMs = append(out.RubikTailMs, ms(valueAt(rbTail, t)))
		out.StaticTailMs = append(out.StaticTailMs, ms(valueAt(soTail, t)))
		out.RubikFreqGHz = append(out.RubikFreqGHz, meanFreqGHz(rbRes.FreqTimeline, t-stepT, t, end))
	}
	out.RubikViolFrac = rbRes.ViolationFrac(bound, Warmup)
	out.StaticViolFrac = float64(soRep.ViolationCount(bound)) / float64(len(tr.Requests))
	return out, nil
}

// Render prints the time series.
func (r *Fig1bResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Fig 1b — masstree load step 30%%→50%% at t=1s (bound %.3f ms, StaticOracle fixed at %d MHz)\n",
		r.BoundMs, r.StaticMHz)
	var rows [][]string
	for i, t := range r.Times {
		rows = append(rows, []string{
			fmt.Sprintf("%.1f", float64(t)/1e9),
			fmt.Sprintf("%.0f", r.LoadQPS[i]),
			fmt.Sprintf("%.3f", r.StaticTailMs[i]),
			fmt.Sprintf("%.3f", r.RubikTailMs[i]),
			fmt.Sprintf("%.2f", r.RubikFreqGHz[i]),
		})
	}
	table(w, []string{"t(s)", "QPS", "static tail(ms)", "rubik tail(ms)", "rubik freq(GHz)"}, rows)
	fmt.Fprintf(w, "violations: rubik %.1f%%, static %.1f%%\n", r.RubikViolFrac*100, r.StaticViolFrac*100)
}

// replayCompletions adapts a ReplayResult into completion records for the
// rolling-tail helper.
func replayCompletions(tr workload.Trace, rep policy.ReplayResult) []queueing.Completion {
	out := make([]queueing.Completion, len(rep.Dones))
	for i, done := range rep.Dones {
		out[i] = queueing.Completion{Arrival: tr.Requests[i].Arrival, Done: done}
	}
	return out
}

// qpsIn counts trace arrivals in (from, to] as a rate.
func qpsIn(tr workload.Trace, from, to sim.Time) float64 {
	n := 0
	for _, r := range tr.Requests {
		if r.Arrival > to {
			break
		}
		if r.Arrival > from {
			n++
		}
	}
	return float64(n) / (float64(to-from) / 1e9)
}

// valueAt returns the series value at the sample closest to t (0 if none).
func valueAt(series []TimePoint, t sim.Time) float64 {
	var v float64
	for _, p := range series {
		if p.T > t {
			break
		}
		v = p.V
	}
	return v
}

// meanFreqGHz computes the time-weighted mean frequency in (from, to].
func meanFreqGHz(timeline []queueing.FreqSample, from, to, end sim.Time) float64 {
	if len(timeline) == 0 {
		return 0
	}
	var wsum, tsum float64
	for i, fs := range timeline {
		segEnd := end
		if i+1 < len(timeline) {
			segEnd = timeline[i+1].T
		}
		lo, hi := fs.T, segEnd
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
	if tsum == 0 {
		return 0
	}
	return wsum / tsum / 1000
}
