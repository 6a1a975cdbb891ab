package policy

import (
	"rubik/internal/cpu"
	"rubik/internal/queueing"
	"rubik/internal/sim"
	"rubik/internal/stats"
)

// Pegasus is a feedback-only controller in the spirit of Lo et al. [33] as
// characterized by the paper: it measures the tail latency over a
// multi-second window and nudges a single core-wide frequency, so it adapts
// to long-term (diurnal) load shifts but cannot exploit sub-millisecond
// variability. The paper uses StaticOracle as its upper bound; this
// implementation exists to demonstrate that a realistic feedback controller
// tracks (and never beats) StaticOracle.
type Pegasus struct {
	// BoundNs is the tail latency bound.
	BoundNs float64
	// Percentile is the tail definition.
	Percentile float64
	// Grid is the DVFS grid.
	Grid cpu.Grid
	// Period is the adjustment cadence (seconds-scale; the paper notes
	// Pegasus adjusts "every few seconds").
	Period sim.Time
	// HighGuard and LowGuard bracket the measured tail: above
	// HighGuard*Bound the frequency steps up (straight to max above
	// 2*Bound), below LowGuard*Bound it steps down.
	HighGuard, LowGuard float64

	cur    int
	window *stats.RollingWindow
}

var (
	_ queueing.Policy             = (*Pegasus)(nil)
	_ queueing.Ticker             = (*Pegasus)(nil)
	_ queueing.CompletionObserver = (*Pegasus)(nil)
)

// NewPegasus returns a Pegasus controller with paper-like guardbands. It
// starts at the lowest grid step at or above nominal frequency.
func NewPegasus(boundNs float64, grid cpu.Grid) *Pegasus {
	return &Pegasus{
		BoundNs:    boundNs,
		Percentile: 0.95,
		Grid:       grid,
		Period:     sim.Second,
		HighGuard:  0.98,
		LowGuard:   0.85,
		cur:        grid.ClampUp(cpu.NominalMHz),
		window:     stats.NewRollingWindow(4 * sim.Second),
	}
}

// Name implements queueing.Policy.
func (p *Pegasus) Name() string { return "pegasus" }

// OnEvent implements queueing.Policy: Pegasus does not react per event; it
// holds the frequency chosen by the last feedback step.
func (p *Pegasus) OnEvent(queueing.View) int { return p.cur }

// ObserveCompletion implements queueing.CompletionObserver.
func (p *Pegasus) ObserveCompletion(c queueing.Completion) {
	p.window.Add(c.Done, c.ResponseNs())
}

// TickEvery implements queueing.Ticker.
func (p *Pegasus) TickEvery() sim.Time { return p.Period }

// OnTick implements queueing.Ticker: the guardbanded feedback step. The
// View is consumed synchronously (Pegasus only reads the clock), per the
// queueing.View non-retention contract.
func (p *Pegasus) OnTick(v queueing.View) int {
	p.window.AdvanceTo(v.Now)
	if p.window.Len() < 8 {
		return p.cur
	}
	measured := p.window.Percentile(p.Percentile)
	// An off-grid frequency (Grid replaced after construction) steps
	// from the grid step it would run at.
	idx := p.Grid.Index(p.Grid.ClampUp(float64(p.cur)))
	switch {
	case measured > 2*p.BoundNs:
		idx = p.Grid.Len() - 1 // emergency: straight to max
	case measured > p.HighGuard*p.BoundNs:
		idx++
	case measured < p.LowGuard*p.BoundNs:
		idx--
	}
	if idx < 0 {
		idx = 0
	}
	if idx >= p.Grid.Len() {
		idx = p.Grid.Len() - 1
	}
	p.cur = p.Grid.Step(idx)
	return p.cur
}
