package cpu

import (
	"fmt"

	"rubik/internal/sim"
)

// EnergyMeter integrates core power over simulated time, split into active
// (serving a request) and idle (sleep) energy, and tracks per-frequency
// active residency. Active-only energy is what the paper's Fig. 6 and
// Fig. 9b report ("active energy per request does not change with load" at
// a fixed frequency); residency backs the frequency histograms of
// Figs. 7b/8b.
type EnergyMeter struct {
	model PowerModel
	// step is the grid index of the frequency AccrueActive charges, and
	// watts the model's active power there, evaluated once per frequency
	// change rather than once per accrual.
	step  int
	watts float64

	activeJ  float64
	idleJ    float64
	activeNs sim.Time
	idleNs   sim.Time
	// residency[i] = active ns spent at grid step i.
	residency []sim.Time
}

// NewEnergyMeter returns a meter for the given grid and power model,
// charging active time at the grid's lowest step until SetFreq.
func NewEnergyMeter(grid Grid, model PowerModel) *EnergyMeter {
	m := &EnergyMeter{
		model:     model,
		residency: make([]sim.Time, grid.Len()),
	}
	m.SetFreq(0, grid.Min())
	return m
}

// SetFreq makes fMHz, the meter grid's step i, the frequency that
// AccrueActive charges from now on.
func (m *EnergyMeter) SetFreq(i, fMHz int) {
	m.step, m.watts = i, m.model.ActivePower(fMHz)
}

// ActiveWatts returns the active core power at the current frequency,
// bitwise the model's ActivePower there.
func (m *EnergyMeter) ActiveWatts() float64 { return m.watts }

// AccrueActive charges dt nanoseconds of execution at the current
// frequency.
func (m *EnergyMeter) AccrueActive(dt sim.Time) {
	if dt <= 0 {
		return
	}
	m.activeJ += m.watts * float64(dt) / 1e9
	m.activeNs += dt
	m.residency[m.step] += dt
}

// AccrueIdle charges dt nanoseconds of sleep.
func (m *EnergyMeter) AccrueIdle(dt sim.Time) {
	if dt <= 0 {
		return
	}
	m.idleJ += m.model.SleepPower() * float64(dt) / 1e9
	m.idleNs += dt
}

// ActiveEnergyJ returns the accumulated active core energy in joules.
func (m *EnergyMeter) ActiveEnergyJ() float64 { return m.activeJ }

// IdleEnergyJ returns the accumulated sleep energy in joules.
func (m *EnergyMeter) IdleEnergyJ() float64 { return m.idleJ }

// TotalEnergyJ returns active plus idle energy in joules.
func (m *EnergyMeter) TotalEnergyJ() float64 { return m.activeJ + m.idleJ }

// ActiveNs returns the total busy time.
func (m *EnergyMeter) ActiveNs() sim.Time { return m.activeNs }

// IdleNs returns the total idle time.
func (m *EnergyMeter) IdleNs() sim.Time { return m.idleNs }

// Residency returns, for each grid step, the fraction of *active* time
// spent at that frequency. Sums to 1 when there was any active time.
func (m *EnergyMeter) Residency() []float64 {
	out := make([]float64, len(m.residency))
	if m.activeNs == 0 {
		return out
	}
	for i, ns := range m.residency {
		out[i] = float64(ns) / float64(m.activeNs)
	}
	return out
}

// String summarizes the meter, mostly for debugging and example output.
func (m *EnergyMeter) String() string {
	return fmt.Sprintf("active %.3f J over %.3f ms, idle %.3f J over %.3f ms",
		m.activeJ, float64(m.activeNs)/1e6, m.idleJ, float64(m.idleNs)/1e6)
}
