package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"rubik/internal/sim"
)

// ArrivalProcess generates interarrival gaps. The paper's clients produce a
// Markov input process (exponentially distributed interarrival times,
// Sec. 5.1); the step processes replay the load-change experiments
// (Figs. 1b and 10).
type ArrivalProcess interface {
	// NextGap returns the gap to the next arrival, given the current time.
	NextGap(r *rand.Rand, now sim.Time) sim.Time
}

// Poisson is a stationary Poisson arrival process.
type Poisson struct {
	RatePerSec float64
}

// NextGap samples an exponential interarrival gap.
func (p Poisson) NextGap(r *rand.Rand, _ sim.Time) sim.Time {
	if !(p.RatePerSec > 0) { // NaN too
		return sim.Second // degenerate: 1 req/s
	}
	return max(sim.SpanNs(r.ExpFloat64()/p.RatePerSec*1e9), 1)
}

// Phase is one segment of a piecewise-constant step-load process.
type Phase struct {
	// Start is when this phase begins.
	Start sim.Time
	// RatePerSec is the Poisson rate during the phase.
	RatePerSec float64
}

// StepLoad is a piecewise-constant Poisson process: the paper's
// load-change experiments step the input load at fixed times
// (25%→50%→75% in Fig. 10).
type StepLoad struct {
	Phases []Phase
}

// NewStepLoad validates and sorts phases. The first phase must start at 0.
func NewStepLoad(phases ...Phase) (StepLoad, error) {
	if len(phases) == 0 {
		return StepLoad{}, fmt.Errorf("workload: StepLoad needs at least one phase")
	}
	ps := make([]Phase, len(phases))
	copy(ps, phases)
	sort.Slice(ps, func(i, j int) bool { return ps[i].Start < ps[j].Start })
	if ps[0].Start != 0 {
		return StepLoad{}, fmt.Errorf("workload: first phase must start at t=0, got %d", ps[0].Start)
	}
	return StepLoad{Phases: ps}, nil
}

// rateAt returns the phase rate in effect at time t.
func (s StepLoad) rateAt(t sim.Time) float64 {
	rate := s.Phases[0].RatePerSec
	for _, p := range s.Phases {
		if p.Start > t {
			break
		}
		rate = p.RatePerSec
	}
	return rate
}

// NextGap samples from the rate in effect now. (Rates change rarely
// relative to interarrival gaps, so re-sampling at the phase boundary is
// not modeled; this matches how the paper's client steps QPS.)
func (s StepLoad) NextGap(r *rand.Rand, now sim.Time) sim.Time {
	return Poisson{RatePerSec: s.rateAt(now)}.NextGap(r, now)
}

// MMPP is a Markov-modulated Poisson process: arrivals are Poisson at the
// current state's rate, and the state holds for an exponentially
// distributed time before moving to the next (cyclically). Two states —
// a calm one and a hot one — give the classic bursty on/off load that
// stresses reactive power managers far more than stationary Poisson.
// MMPP is stateful: do not share one instance between live sources.
type MMPP struct {
	// States are visited cyclically; each holds for Exp(MeanHold).
	States []MMPPState

	cur      int
	stateEnd sim.Time
	primed   bool
}

// MMPPState is one rate regime of an MMPP.
type MMPPState struct {
	// RatePerSec is the Poisson arrival rate while in this state.
	RatePerSec float64
	// MeanHold is the mean sojourn time in this state.
	MeanHold sim.Time
}

// NewBurstyMMPP builds the standard two-state burst model: baseRate with
// burst episodes at burstFactor times the base rate. meanCalm and
// meanBurst are the mean state sojourn times.
func NewBurstyMMPP(baseRate, burstFactor float64, meanCalm, meanBurst sim.Time) *MMPP {
	return &MMPP{States: []MMPPState{
		{RatePerSec: baseRate, MeanHold: meanCalm},
		{RatePerSec: baseRate * burstFactor, MeanHold: meanBurst},
	}}
}

// NextGap advances the state machine past now and samples a gap at the
// current state's rate. (As with StepLoad, a gap is sampled wholly from
// the rate in effect when it begins.)
func (m *MMPP) NextGap(r *rand.Rand, now sim.Time) sim.Time {
	if len(m.States) == 0 {
		return Poisson{}.NextGap(r, now)
	}
	if !m.primed {
		m.primed = true
		m.stateEnd = m.holdFrom(r, 0)
	}
	for now >= m.stateEnd && m.stateEnd < math.MaxInt64 {
		m.cur = (m.cur + 1) % len(m.States)
		m.stateEnd = sim.AddSpan(m.stateEnd, m.holdFrom(r, m.cur))
	}
	return Poisson{RatePerSec: m.States[m.cur].RatePerSec}.NextGap(r, now)
}

// holdFrom samples a sojourn time for state i.
func (m *MMPP) holdFrom(r *rand.Rand, i int) sim.Time {
	return max(sim.SpanNs(r.ExpFloat64()*float64(m.States[i].MeanHold)), 1)
}

// ResetProcess rewinds the state machine (GenSource.Reset calls this).
func (m *MMPP) ResetProcess() {
	m.cur = 0
	m.stateEnd = 0
	m.primed = false
}

// Sinusoid is a diurnal load curve: a Poisson process whose rate follows
// Base·(1 + Amplitude·sin(2π·t/Period + Phase)), clamped at a small
// positive floor. With Period scaled down to simulation timescales it
// reproduces the day/night swings datacenter power managers ride.
type Sinusoid struct {
	// BaseRate is the mean arrival rate (requests/second).
	BaseRate float64
	// Amplitude is the relative swing (0..1: 0.8 means ±80% of Base).
	Amplitude float64
	// Period is the cycle length.
	Period sim.Time
	// Phase offsets the cycle start (radians).
	Phase float64
}

// rateAt returns the instantaneous rate at time t. A non-positive Period
// degenerates to the constant base rate (guards the NaN a zero Period
// would otherwise inject into the gap sampler).
func (s Sinusoid) rateAt(t sim.Time) float64 {
	if s.Period <= 0 {
		return s.BaseRate
	}
	rate := s.BaseRate * (1 + s.Amplitude*math.Sin(2*math.Pi*float64(t)/float64(s.Period)+s.Phase))
	if floor := s.BaseRate * 1e-3; rate < floor {
		rate = floor
	}
	return rate
}

// NextGap samples a gap at the instantaneous rate (rate drift over one
// gap is negligible when Period spans many interarrivals).
func (s Sinusoid) NextGap(r *rand.Rand, now sim.Time) sim.Time {
	return Poisson{RatePerSec: s.rateAt(now)}.NextGap(r, now)
}

// FlashCrowd is a Poisson process with one spike episode: rate jumps to
// Peak×Base at Start, holds for Hold, then decays exponentially back
// toward the base rate with time constant Decay — the flash-crowd /
// breaking-news shape that latency SLOs are hardest to hold through.
type FlashCrowd struct {
	// BaseRate is the pre/post-spike rate (requests/second).
	BaseRate float64
	// Peak is the spike multiplier (e.g. 4 = 4x base at the crest).
	Peak float64
	// Start is when the spike hits; Hold is the full-rate plateau.
	Start, Hold sim.Time
	// Decay is the exponential recovery time constant.
	Decay sim.Time
}

// rateAt returns the instantaneous rate at time t.
func (f FlashCrowd) rateAt(t sim.Time) float64 {
	switch {
	case t < f.Start:
		return f.BaseRate
	case t < f.Start+f.Hold:
		return f.BaseRate * f.Peak
	default:
		if f.Decay <= 0 {
			return f.BaseRate
		}
		excess := (f.Peak - 1) * math.Exp(-float64(t-f.Start-f.Hold)/float64(f.Decay))
		return f.BaseRate * (1 + excess)
	}
}

// NextGap samples a gap at the instantaneous rate.
func (f FlashCrowd) NextGap(r *rand.Rand, now sim.Time) sim.Time {
	return Poisson{RatePerSec: f.rateAt(now)}.NextGap(r, now)
}
