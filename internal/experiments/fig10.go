package experiments

import (
	"fmt"
	"io"

	"rubik/internal/cpu"
	"rubik/internal/policy"
	"rubik/internal/queueing"
	"rubik/internal/sim"
	"rubik/internal/workload"
)

// Fig10App holds one app's load-step traces.
type Fig10App struct {
	App     string
	BoundMs float64
	// Sampled every 200 ms over the 12 s run.
	Times []sim.Time
	// Rolling 200 ms p95 per scheme (ms).
	StaticTailMs, AdrenalineTailMs, RubikTailMs []float64
	// Rolling 200 ms active power per scheme (W).
	StaticPowerW, AdrenalinePowerW, RubikPowerW []float64
	// Rubik's time-weighted mean frequency per sample (GHz).
	RubikFreqGHz []float64
	// Per-phase violation fractions (25%, 50%, 75%) for Rubik.
	RubikPhaseViol [3]float64
}

// Fig10Result reproduces Fig. 10: load steps 25%→50%→75% (4 s each) for
// StaticOracle, AdrenalineOracle and Rubik on all five apps.
type Fig10Result struct {
	Apps []Fig10App
}

// Fig10 runs the responsiveness comparison. StaticOracle and
// AdrenalineOracle are configured from the 50% steady-state trace (the
// bound-defining load) and cannot adapt; Rubik reacts per event.
func Fig10(opts Options) (*Fig10Result, error) {
	h := newHarness(opts)
	out := &Fig10Result{}
	phaseDur := 4 * sim.Second
	if opts.Quick {
		phaseDur = sim.Second
	}
	for _, app := range workload.Apps() {
		bound, err := h.bound(app)
		if err != nil {
			return nil, err
		}
		rates := []float64{app.RateForLoad(0.25), app.RateForLoad(0.5), app.RateForLoad(0.75)}
		step, err := workload.NewStepLoad(
			workload.Phase{Start: 0, RatePerSec: rates[0]},
			workload.Phase{Start: phaseDur, RatePerSec: rates[1]},
			workload.Phase{Start: 2 * phaseDur, RatePerSec: rates[2]},
		)
		if err != nil {
			return nil, err
		}
		n := int(float64(phaseDur) / 1e9 * (rates[0] + rates[1] + rates[2]))
		tr := workload.Generate(app, step, n, opts.Seed+stableSeed(app.Name, 10))

		steady := h.trace(app, 0.5)
		so, err := policy.StaticOracle(steady, h.grid, bound, TailPercentile, h.rcfg)
		if err != nil {
			return nil, err
		}
		soRep, err := policy.Replay(tr, policy.UniformAssignment(len(tr.Requests), so.MHz), h.rcfg)
		if err != nil {
			return nil, err
		}

		ad, err := policy.AdrenalineOracle(steady, h.grid, bound, TailPercentile, h.rcfg)
		if err != nil {
			return nil, err
		}
		adFreqs := make([]int, len(tr.Requests))
		for i, req := range tr.Requests {
			if req.ServiceNs(cpu.NominalMHz) >= ad.ThresholdNs {
				adFreqs[i] = ad.HighMHz
			} else {
				adFreqs[i] = ad.LowMHz
			}
		}
		adRep, err := policy.Replay(tr, adFreqs, h.rcfg)
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

		a := Fig10App{App: app.Name, BoundMs: ms(bound)}
		const stepT = 200 * sim.Millisecond
		const window = 200 * sim.Millisecond
		end := rbRes.EndTime
		soTail := rollingTail(replayCompletions(tr, soRep), window, stepT, TailPercentile)
		adTail := rollingTail(replayCompletions(tr, adRep), window, stepT, TailPercentile)
		rbTail := rollingTail(rbRes.Completions, window, stepT, TailPercentile)
		soPow := rollingPower(replayEnergy(tr, soRep, policy.UniformAssignment(len(tr.Requests), so.MHz), h), window, stepT, end)
		adPow := rollingPower(replayEnergy(tr, adRep, adFreqs, h), window, stepT, end)
		rbPow := rollingPower(rbRes.EnergyTimeline, window, stepT, end)
		for t := stepT; t <= end; t += stepT {
			a.Times = append(a.Times, t)
			a.StaticTailMs = append(a.StaticTailMs, ms(valueAt(soTail, t)))
			a.AdrenalineTailMs = append(a.AdrenalineTailMs, ms(valueAt(adTail, t)))
			a.RubikTailMs = append(a.RubikTailMs, ms(valueAt(rbTail, t)))
			a.StaticPowerW = append(a.StaticPowerW, valueAt(soPow, t))
			a.AdrenalinePowerW = append(a.AdrenalinePowerW, valueAt(adPow, t))
			a.RubikPowerW = append(a.RubikPowerW, valueAt(rbPow, t))
			a.RubikFreqGHz = append(a.RubikFreqGHz, meanFreqGHz(rbRes.FreqTimeline, t-stepT, t, end))
		}
		// Per-phase Rubik violations.
		for ph := 0; ph < 3; ph++ {
			lo := sim.Time(ph) * phaseDur
			hi := lo + phaseDur
			var n, v int
			for _, c := range rbRes.Completions {
				if c.Arrival >= lo && c.Arrival < hi {
					n++
					if c.ResponseNs() > bound {
						v++
					}
				}
			}
			if n > 0 {
				a.RubikPhaseViol[ph] = float64(v) / float64(n)
			}
		}
		out.Apps = append(out.Apps, a)
	}
	return out, nil
}

// replayEnergy reconstructs an energy timeline from a replay's per-request
// services, for the rolling-power panels.
func replayEnergy(tr workload.Trace, rep policy.ReplayResult, freqs []int, h *harness) []queueing.EnergySample {
	out := make([]queueing.EnergySample, len(rep.Dones))
	for i := range rep.Dones {
		service := tr.Requests[i].ServiceNs(freqs[i])
		out[i] = queueing.EnergySample{
			T: rep.Dones[i],
			J: h.power.ActivePower(freqs[i]) * service / 1e9,
		}
	}
	return out
}

// Render prints one condensed table per app.
func (r *Fig10Result) Render(w io.Writer) {
	fmt.Fprintln(w, "Fig 10 — load steps 25%→50%→75%: rolling 200 ms p95 (ms), active power (W), Rubik frequency (GHz)")
	for _, a := range r.Apps {
		fmt.Fprintf(w, "\n%s (bound %.3f ms; rubik violations by phase: %.1f%% / %.1f%% / %.1f%%)\n",
			a.App, a.BoundMs, a.RubikPhaseViol[0]*100, a.RubikPhaseViol[1]*100, a.RubikPhaseViol[2]*100)
		var rows [][]string
		for i, t := range a.Times {
			if i%4 != 3 { // print every 800 ms
				continue
			}
			rows = append(rows, []string{
				fmt.Sprintf("%.1f", float64(t)/1e9),
				fmt.Sprintf("%.3f", a.StaticTailMs[i]),
				fmt.Sprintf("%.3f", a.AdrenalineTailMs[i]),
				fmt.Sprintf("%.3f", a.RubikTailMs[i]),
				fmt.Sprintf("%.2f", a.StaticPowerW[i]),
				fmt.Sprintf("%.2f", a.AdrenalinePowerW[i]),
				fmt.Sprintf("%.2f", a.RubikPowerW[i]),
				fmt.Sprintf("%.2f", a.RubikFreqGHz[i]),
			})
		}
		table(w, []string{"t(s)", "so tail", "adr tail", "rubik tail", "so W", "adr W", "rubik W", "rubik GHz"}, rows)
	}
}
