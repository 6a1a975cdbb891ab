package cpu

import (
	"fmt"
	"math"
)

// Voltage returns the Haswell-like operating voltage for a frequency,
// interpolated linearly between 0.65 V at 800 MHz and 1.15 V at 3.4 GHz.
// Frequencies outside the grid clamp to the endpoints.
func Voltage(fMHz int) float64 {
	const (
		vMin = 0.65
		vMax = 1.15
	)
	if fMHz <= MinMHz {
		return vMin
	}
	if fMHz >= MaxMHz {
		return vMax
	}
	frac := float64(fMHz-MinMHz) / float64(MaxMHz-MinMHz)
	return vMin + frac*(vMax-vMin)
}

// PowerModel is the analytical core power model:
//
//	P_active(f) = DynCoeff * V(f)^2 * f  +  LeakCoeff * V(f)
//	P_sleep     = SleepW                       (C3-like: L1/L2 flushed)
//
// Calibrated so a 6-core CMP at max frequency lands near the 65 W TDP of
// paper Table 2 and the dynamic range supports the observed up-to-66% core
// power savings. The paper fits its model to RAPL measurements; here the
// model is the ground truth and the fitting methodology is exercised
// separately (see Fit and the power-model-validation experiment).
type PowerModel struct {
	// DynCoeff is the switching power coefficient in W / (MHz * V^2).
	DynCoeff float64
	// LeakCoeff is the leakage coefficient in W / V.
	LeakCoeff float64
	// SleepW is the C3-like core sleep power in W.
	SleepW float64
	// ActivityFactor scales dynamic power for the running workload
	// (1.0 = the calibration workload).
	ActivityFactor float64
}

// DefaultPowerModel returns the calibrated core power model. The model is
// dynamic-dominated, like the paper's Haswell: P(0.8 GHz)/P(2.4 GHz) ≈ 0.19,
// so slowing a request 3x cuts its energy substantially — the leverage
// behind the paper's up-to-66% core power savings.
func DefaultPowerModel() PowerModel {
	return PowerModel{
		DynCoeff:       0.0023,
		LeakCoeff:      0.4,
		SleepW:         0.25,
		ActivityFactor: 1.0,
	}
}

// ActivePower returns the core power in W while executing at fMHz.
//
// For a model Validate accepts it never decreases as a positive fMHz
// rises: Voltage is non-decreasing, every factor and term is
// non-negative, and IEEE rounding is monotone, so each term (and their
// sum) is non-decreasing even where a product overflows to +Inf or
// underflows to 0. This is the one place that knows the curve's shape;
// the capping allocators rely on step 0 being the cheapest step and
// the top step the costliest (TestActivePowerMonotone pins it).
func (m PowerModel) ActivePower(fMHz int) float64 {
	v := Voltage(fMHz)
	return m.ActivityFactor*m.DynCoeff*v*v*float64(fMHz) + m.LeakCoeff*v
}

// SleepPower returns the core power in W while in the sleep state.
func (m PowerModel) SleepPower() float64 { return m.SleepW }

// Validate reports whether the model's parameters are physically
// sensible: finite, with positive DynCoeff and ActivityFactor and
// non-negative LeakCoeff and SleepW. NaN fails every comparison.
func (m PowerModel) Validate() error {
	positive := func(v float64) bool { return v > 0 && !math.IsInf(v, 1) }
	nonNegative := func(v float64) bool { return v >= 0 && !math.IsInf(v, 1) }
	if !positive(m.DynCoeff) || !nonNegative(m.LeakCoeff) || !nonNegative(m.SleepW) || !positive(m.ActivityFactor) {
		return fmt.Errorf("cpu: invalid power model %+v", m)
	}
	return nil
}

// SystemPower models the non-core components of a server, following the
// component split of the paper's power model (cores, uncore, DRAM, other:
// PSU, disk, NIC). Uncore and DRAM have idle floors plus activity-
// proportional parts; "other" is constant. These idle floors are what make
// servers non-energy-proportional and motivate RubikColoc (paper Sec. 6).
type SystemPower struct {
	// UncoreIdleW is the uncore (LLC, ring, memory controller) idle power.
	UncoreIdleW float64
	// UncorePerActiveCoreW is added per active core.
	UncorePerActiveCoreW float64
	// DRAMIdleW is DRAM background power.
	DRAMIdleW float64
	// DRAMPerActiveCoreW is added per active core (refresh + access energy).
	DRAMPerActiveCoreW float64
	// OtherW covers PSU losses, disk, NIC, fans.
	OtherW float64
}

// DefaultSystemPower returns the calibrated non-core model for the 6-core
// server of paper Table 2. With all six cores busy at nominal frequency the
// wall power lands near 120 W; fully idle near 55 W — a typical
// non-energy-proportional server (paper Sec. 6, [1,38,41]).
func DefaultSystemPower() SystemPower {
	return SystemPower{
		UncoreIdleW:          14,
		UncorePerActiveCoreW: 1.0,
		DRAMIdleW:            9,
		DRAMPerActiveCoreW:   1.5,
		OtherW:               25,
	}
}

// NonCorePower returns uncore+DRAM+other power given the average number of
// active cores (may be fractional, e.g. a core busy 30% of the time
// contributes 0.3).
func (s SystemPower) NonCorePower(activeCores float64) float64 {
	if activeCores < 0 {
		activeCores = 0
	}
	return s.UncoreIdleW + s.DRAMIdleW + s.OtherW +
		activeCores*(s.UncorePerActiveCoreW+s.DRAMPerActiveCoreW)
}
