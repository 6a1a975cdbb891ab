package experiments

import (
	"fmt"
	"io"
	"sort"

	"rubik/internal/cpu"
	"rubik/internal/queueing"
	"rubik/internal/sim"
	"rubik/internal/stats"
	"rubik/internal/workload"
)

// Fig2aResult reproduces Fig. 2a: the CDF of instantaneous load (QPS over a
// rolling 5 ms window, normalized to the run's average) for each app.
type Fig2aResult struct {
	// NormQPSAtPercentile[app][k] is the normalized instantaneous QPS at
	// the k-th entry of Percentiles.
	Percentiles []float64
	NormQPS     map[string][]float64
	Apps        []string
}

// Fig2a measures instantaneous-load variability from the arrival streams.
func Fig2a(opts Options) (*Fig2aResult, error) {
	h := newHarness(opts)
	res := &Fig2aResult{
		Percentiles: []float64{0.05, 0.25, 0.50, 0.75, 0.90, 0.99},
		NormQPS:     map[string][]float64{},
	}
	const window = 5 * sim.Millisecond
	for _, app := range workload.Apps() {
		res.Apps = append(res.Apps, app.Name)
		tr := h.trace(app, 0.5)
		// Sample the rolling window count every 1 ms.
		var samples []float64
		arr := tr.Requests
		lo := 0
		hi := 0
		for t := window; t <= tr.Duration(); t += sim.Millisecond {
			for hi < len(arr) && arr[hi].Arrival <= t {
				hi++
			}
			for lo < len(arr) && arr[lo].Arrival <= t-window {
				lo++
			}
			samples = append(samples, float64(hi-lo)/(float64(window)/1e9))
		}
		avg := meanOf(samples)
		if avg == 0 {
			continue
		}
		sort.Float64s(samples)
		var row []float64
		for _, p := range res.Percentiles {
			row = append(row, stats.PercentileSorted(samples, p)/avg)
		}
		res.NormQPS[app.Name] = row
	}
	return res, nil
}

// Render writes the result as a table.
func (r *Fig2aResult) Render(w io.Writer) {
	fmt.Fprintln(w, "Fig 2a — CDF of instantaneous QPS (5 ms window), normalized to average load")
	header := []string{"app"}
	for _, p := range r.Percentiles {
		header = append(header, fmt.Sprintf("p%.0f", p*100))
	}
	var rows [][]string
	for _, app := range r.Apps {
		row := []string{app}
		for _, v := range r.NormQPS[app] {
			row = append(row, fmt.Sprintf("%.2f", v))
		}
		rows = append(rows, row)
	}
	table(w, header, rows)
}

// Fig2bResult reproduces Fig. 2b: a masstree execution trace at 50% load —
// QPS, service times, queue lengths and response times over time.
type Fig2bResult struct {
	QPS       []TimePoint // 100 ms windows
	Service   []TimePoint // per completion (ms)
	QueueLen  []TimePoint // at each arrival
	Response  []TimePoint // per completion (ms)
	MeanQPS   float64
	P95RespMs float64
}

// Fig2b runs masstree at 50% load under fixed nominal frequency and
// extracts the four panels of the paper's figure.
func Fig2b(opts Options) (*Fig2bResult, error) {
	h := newHarness(opts)
	app := workload.Masstree()
	tr := h.trace(app, 0.5)
	res, err := queueing.Run(tr, queueing.FixedPolicy{MHz: cpu.NominalMHz}, h.qcfg)
	if err != nil {
		return nil, err
	}
	out := &Fig2bResult{}
	// QPS over 100 ms windows.
	arr := tr.Requests
	lo, hi := 0, 0
	const win = 100 * sim.Millisecond
	for t := win; t <= tr.Duration(); t += win {
		for hi < len(arr) && arr[hi].Arrival <= t {
			hi++
		}
		for lo < len(arr) && arr[lo].Arrival <= t-win {
			lo++
		}
		out.QPS = append(out.QPS, TimePoint{T: t, V: float64(hi-lo) / (float64(win) / 1e9)})
	}
	var responses []float64
	for _, c := range res.Completions {
		out.Service = append(out.Service, TimePoint{T: c.Done, V: ms(c.ServiceNs())})
		out.QueueLen = append(out.QueueLen, TimePoint{T: c.Arrival, V: float64(c.QueueLenAtArrival)})
		out.Response = append(out.Response, TimePoint{T: c.Done, V: ms(c.ResponseNs())})
		responses = append(responses, c.ResponseNs())
	}
	var qpsVals []float64
	for _, p := range out.QPS {
		qpsVals = append(qpsVals, p.V)
	}
	out.MeanQPS = meanOf(qpsVals)
	out.P95RespMs = ms(stats.PercentileInPlace(responses, TailPercentile))
	return out, nil
}

// Render summarizes the four panels.
func (r *Fig2bResult) Render(w io.Writer) {
	fmt.Fprintln(w, "Fig 2b — masstree execution trace at 50% load (fixed nominal frequency)")
	summarize := func(name string, pts []TimePoint) []string {
		var vals []float64
		for _, p := range pts {
			vals = append(vals, p.V)
		}
		if len(vals) == 0 {
			return []string{name, "-", "-", "-"}
		}
		// Take the mean before the selections reorder vals.
		mean := meanOf(vals)
		return []string{name,
			fmt.Sprintf("%.3f", mean),
			fmt.Sprintf("%.3f", stats.PercentileInPlace(vals, 0.95)),
			fmt.Sprintf("%.3f", stats.PercentileInPlace(vals, 1.0)),
		}
	}
	table(w, []string{"panel", "mean", "p95", "max"}, [][]string{
		summarize("QPS (100ms win)", r.QPS),
		summarize("service time (ms)", r.Service),
		summarize("queue length", r.QueueLen),
		summarize("response time (ms)", r.Response),
	})
	fmt.Fprintf(w, "mean QPS %.0f, p95 response %.3f ms\n", r.MeanQPS, r.P95RespMs)
}

// Fig2cResult reproduces Fig. 2c: p95 tail latency vs utilization,
// normalized to the app's p95 service latency.
type Fig2cResult struct {
	Loads []float64
	// NormTail[app][i] is p95(response)/p95(service) at Loads[i].
	NormTail map[string][]float64
	Apps     []string
}

// Fig2c sweeps load under fixed nominal frequency.
func Fig2c(opts Options) (*Fig2cResult, error) {
	h := newHarness(opts)
	loads := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}
	if opts.Quick {
		loads = []float64{0.2, 0.5, 0.8}
	}
	out := &Fig2cResult{Loads: loads, NormTail: map[string][]float64{}}
	for _, app := range workload.Apps() {
		out.Apps = append(out.Apps, app.Name)
		var row []float64
		for _, load := range loads {
			tr := h.trace(app, load)
			res, err := queueing.Run(tr, queueing.FixedPolicy{MHz: cpu.NominalMHz}, h.qcfg)
			if err != nil {
				return nil, err
			}
			var svc []float64
			for _, c := range res.Completions {
				svc = append(svc, c.ServiceNs())
			}
			p95Svc := stats.PercentileInPlace(svc, TailPercentile)
			row = append(row, res.TailNs(TailPercentile, Warmup)/p95Svc)
		}
		out.NormTail[app.Name] = row
	}
	return out, nil
}

// Render writes the normalized-tail table.
func (r *Fig2cResult) Render(w io.Writer) {
	fmt.Fprintln(w, "Fig 2c — p95 tail latency vs load, normalized to p95 service latency")
	header := []string{"app"}
	for _, l := range r.Loads {
		header = append(header, fmt.Sprintf("%.0f%%", l*100))
	}
	var rows [][]string
	for _, app := range r.Apps {
		row := []string{app}
		for _, v := range r.NormTail[app] {
			row = append(row, fmt.Sprintf("%.2f", v))
		}
		rows = append(rows, row)
	}
	table(w, header, rows)
}

// Table1Result reproduces Table 1: Pearson correlation of response latency
// with service time, instantaneous QPS and queue length.
type Table1Result struct {
	Apps []string
	// Correlations[app] = {service, qps, queue}.
	Correlations map[string][3]float64
}

// Table1 computes the correlations at 50% load under fixed nominal
// frequency, as in the paper's characterization.
func Table1(opts Options) (*Table1Result, error) {
	h := newHarness(opts)
	out := &Table1Result{Correlations: map[string][3]float64{}}
	const qpsWin = 5 * sim.Millisecond
	for _, app := range workload.Apps() {
		out.Apps = append(out.Apps, app.Name)
		tr := h.trace(app, 0.5)
		res, err := queueing.Run(tr, queueing.FixedPolicy{MHz: cpu.NominalMHz}, h.qcfg)
		if err != nil {
			return nil, err
		}
		// Instantaneous QPS at each arrival: arrivals in (arr-5ms, arr].
		arr := tr.Requests
		instQPS := make([]float64, len(arr))
		lo := 0
		for i := range arr {
			for lo < len(arr) && arr[lo].Arrival <= arr[i].Arrival-qpsWin {
				lo++
			}
			instQPS[i] = float64(i-lo+1) / (float64(qpsWin) / 1e9)
		}
		var resp, svc, qps, qlen []float64
		for _, c := range res.Completions {
			resp = append(resp, c.ResponseNs())
			svc = append(svc, c.ServiceNs())
			qps = append(qps, instQPS[c.ID])
			qlen = append(qlen, float64(c.QueueLenAtArrival))
		}
		rs, err := stats.Pearson(resp, svc)
		if err != nil {
			return nil, err
		}
		rq, err := stats.Pearson(resp, qps)
		if err != nil {
			return nil, err
		}
		rl, err := stats.Pearson(resp, qlen)
		if err != nil {
			return nil, err
		}
		out.Correlations[app.Name] = [3]float64{rs, rq, rl}
	}
	return out, nil
}

// Render writes Table 1.
func (r *Table1Result) Render(w io.Writer) {
	fmt.Fprintln(w, "Table 1 — Pearson correlation of response latency with:")
	var rows [][]string
	for _, app := range r.Apps {
		c := r.Correlations[app]
		rows = append(rows, []string{app,
			fmt.Sprintf("%.2f", c[0]),
			fmt.Sprintf("%.2f", c[1]),
			fmt.Sprintf("%.2f", c[2]),
		})
	}
	table(w, []string{"app", "service time", "inst. QPS", "queue length"}, rows)
}
