package workload

import (
	"fmt"
	"math"

	"rubik/internal/sim"
)

// Scenario is a named arrival/service shape in the scenario registry:
// given an app, a mean load fraction, a request budget and a seed it
// builds the streaming Source realizing that shape. Time-varying
// scenarios derive their episode lengths from the app's mean
// interarrival time at the target load, so every app sees the same
// relative dynamics regardless of its absolute request rate.
type Scenario struct {
	// Name is the registry key (rubiktrace -scenario, the scenarios
	// experiment, the facade).
	Name string
	// Description is a one-line summary for listings.
	Description string
	// New builds the scenario source. load is the mean fraction of the
	// app's nominal-frequency capacity; n caps total requests. It streams
	// nothing for n <= 0 or a load NewScenarioSource rejects (see
	// checkLoad); NewScenarioSource reports why instead.
	New func(app LCApp, load float64, n int, seed int64) Source
}

// expectedDur estimates the run length of n requests at a mean load; a
// negative n, an empty stream, takes no time.
func expectedDur(app LCApp, load float64, n int) sim.Time {
	return sim.Time(float64(max(n, 0)) / app.RateForLoad(load) * 1e9)
}

// meanGap returns the mean interarrival time at the target load.
func meanGap(app LCApp, load float64) sim.Time {
	return sim.Time(1e9 / app.RateForLoad(load))
}

// checkLoad reports why a scenario cannot realize a mean load over n
// requests of app: the load is not finite and positive, or its mean gap
// or expected run of n requests does not fit in sim.Time. The shapes
// derive their episode lengths from both, and an overflowed length would
// panic or spin the arrival process.
func checkLoad(app LCApp, load float64, n int) error {
	if !(load > 0) || math.IsInf(load, 1) {
		return fmt.Errorf("needs a finite positive load, got %v", load)
	}
	// The float forms of meanGap and expectedDur, checked before they
	// are converted.
	rate := app.RateForLoad(load)
	gap, run := 1e9/rate, float64(n)/rate*1e9
	if !(gap < math.MaxInt64 && run < math.MaxInt64) {
		return fmt.Errorf("load %v is too low: mean gap %.3g ns, expected run %.3g ns overflow the simulated clock",
			load, gap, run)
	}
	return nil
}

// Scenarios returns the registry in presentation order. Every scenario is
// deterministic per (app, load, n, seed), and its New streams nothing on
// a load checkLoad rejects.
func Scenarios() []Scenario {
	scs := scenarioShapes()
	for i := range scs {
		build := scs[i].New
		scs[i].New = func(app LCApp, load float64, n int, seed int64) Source {
			if checkLoad(app, load, n) != nil {
				return &TraceSource{}
			}
			return build(app, load, n, seed)
		}
	}
	return scs
}

// scenarioShapes builds the registry's shapes, each trusting its load.
func scenarioShapes() []Scenario {
	return []Scenario{
		{
			Name:        "poisson",
			Description: "stationary Poisson arrivals (the paper's Markov input)",
			New: func(app LCApp, load float64, n int, seed int64) Source {
				return NewLoadSource(app, load, n, seed)
			},
		},
		{
			Name:        "step",
			Description: "piecewise load steps 0.5x -> 1x -> 1.5x of the target load",
			New: func(app LCApp, load float64, n int, seed int64) Source {
				T := expectedDur(app, load, n)
				step, err := NewStepLoad(
					Phase{Start: 0, RatePerSec: app.RateForLoad(0.5 * load)},
					Phase{Start: T / 3, RatePerSec: app.RateForLoad(load)},
					// 2T/3, without overflowing 2T.
					Phase{Start: T/3*2 + T%3*2/3, RatePerSec: app.RateForLoad(1.5 * load)},
				)
				if err != nil {
					panic(err) // phases above are statically valid
				}
				return NewGenSource(app, step, n, seed)
			},
		},
		{
			Name:        "bursty",
			Description: "two-state MMPP: calm spells with 3x burst episodes",
			New: func(app LCApp, load float64, n int, seed int64) Source {
				// Mean rate over the cycle is base*(4*1 + 1*3)/5 = 1.4*base;
				// divide so the scenario's mean load matches the target.
				base := app.RateForLoad(load) / 1.4
				gap := float64(meanGap(app, load))
				return NewGenSource(app, NewBurstyMMPP(base, 3, sim.SpanNs(400*gap), sim.SpanNs(100*gap)), n, seed)
			},
		},
		{
			Name:        "diurnal",
			Description: "sinusoidal day/night load swing (+/-60%), four cycles per run",
			New: func(app LCApp, load float64, n int, seed int64) Source {
				return NewGenSource(app, Sinusoid{
					BaseRate:  app.RateForLoad(load),
					Amplitude: 0.6,
					Period:    expectedDur(app, load, n) / 4,
				}, n, seed)
			},
		},
		{
			Name:        "flashcrowd",
			Description: "flash-crowd spike: 3x load plateau then exponential decay",
			New: func(app LCApp, load float64, n int, seed int64) Source {
				T := expectedDur(app, load, n)
				return NewGenSource(app, FlashCrowd{
					BaseRate: app.RateForLoad(load),
					Peak:     3,
					Start:    T / 3,
					Hold:     T / 10,
					Decay:    T / 10,
				}, n, seed)
			},
		},
		{
			Name:        "closedloop",
			Description: "closed-loop think-time clients (population sized for the target load)",
			New: func(app LCApp, load float64, n int, seed int64) Source {
				// Interactive law: throughput ~= Clients/think when think
				// dominates response time, so Clients = load*think/meanService
				// offers the target load. think = 20x mean service keeps the
				// approximation honest at moderate loads. Clients beyond the
				// request cap n could never issue a request, and the
				// population is also capped at the app's run length
				// app.Requests, so neither a huge load nor a huge n sizes a
				// population that is all allocated up front.
				think := sim.Time(20 * app.MeanServiceNsAtNominal())
				clients := max(int(min(load*20+0.5, float64(min(n, app.Requests)))), 1)
				return ClosedLoop{
					App:       app,
					Clients:   clients,
					MeanThink: think,
					N:         n,
					Seed:      seed,
				}.NewSource()
			},
		},
		{
			Name:        "heavytail",
			Description: "Poisson arrivals with 2% Pareto straggler requests (3-50x)",
			New: func(app LCApp, load float64, n int, seed int64) Source {
				mod := &ParetoSlowdown{Prob: 0.02, Scale: 3, Alpha: 1.5, Cap: 50}
				return Modulate(NewLoadSource(app, load, n, seed), mod, seed+1)
			},
		},
		{
			Name:        "correlated",
			Description: "Poisson arrivals with AR(1)-correlated service slowdowns",
			New: func(app LCApp, load float64, n int, seed int64) Source {
				mod := &ARSlowdown{Corr: 0.95, Sigma: 0.3}
				return Modulate(NewLoadSource(app, load, n, seed), mod, seed+2)
			},
		},
	}
}

// ScenarioByName looks a scenario up in the registry.
func ScenarioByName(name string) (Scenario, error) {
	for _, s := range Scenarios() {
		if s.Name == name {
			return s, nil
		}
	}
	return Scenario{}, fmt.Errorf("workload: unknown scenario %q", name)
}

// NewScenarioSource builds the named scenario's source for app at a mean
// load fraction, capped at n requests, deterministically per seed. It
// rejects a negative n and a load checkLoad rejects, on which the
// scenario's New would stream nothing.
func NewScenarioSource(name string, app LCApp, load float64, n int, seed int64) (Source, error) {
	sc, err := ScenarioByName(name)
	if err != nil {
		return nil, err
	}
	if n < 0 {
		return nil, fmt.Errorf("workload: scenario %s needs a non-negative request count, got %d", name, n)
	}
	if err := checkLoad(app, load, n); err != nil {
		return nil, fmt.Errorf("workload: scenario %s: %w", name, err)
	}
	return sc.New(app, load, n, seed), nil
}
