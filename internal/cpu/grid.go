// Package cpu models the processor substrate of the Rubik reproduction:
// the per-core DVFS frequency grid and transition latency (paper Table 2:
// Haswell-like FIVR, 0.8-3.4 GHz in 200 MHz steps, 4 us V/F transitions),
// a voltage/frequency map, the core and full-system power models, energy
// metering, and the regression machinery behind the paper's power-model
// fitting methodology (Sec. 5.1).
package cpu

import "fmt"

// Frequencies are integers in MHz throughout the reproduction; a core at
// f MHz retires f compute cycles per microsecond.
const (
	// NominalMHz is the baseline frequency of the simulated CMP
	// (paper Table 2: 2.4 GHz nominal).
	NominalMHz = 2400
	// MinMHz and MaxMHz bound the DVFS range (paper Table 2).
	MinMHz = 800
	MaxMHz = 3400
	// StepMHz is the DVFS step (paper Table 2).
	StepMHz = 200
)

// Grid is an ascending set of available frequency steps.
type Grid struct {
	steps []int
}

// defaultGrid is the paper grid. A Grid never writes its steps, so every
// DefaultGrid call shares this one.
var defaultGrid = func() Grid {
	steps := make([]int, (MaxMHz-MinMHz)/StepMHz+1)
	for i := range steps {
		steps[i] = MinMHz + i*StepMHz
	}
	return Grid{steps: steps}
}()

// DefaultGrid returns the paper's 0.8-3.4 GHz grid in 200 MHz steps.
func DefaultGrid() Grid { return defaultGrid }

// NewGrid builds a grid from explicit ascending steps. Steps must be
// positive: on positive frequencies every valid PowerModel's active power
// is non-decreasing in the step index, which the capping allocators rely
// on.
func NewGrid(steps []int) (Grid, error) {
	if len(steps) == 0 {
		return Grid{}, fmt.Errorf("cpu: empty frequency grid")
	}
	if steps[0] <= 0 {
		return Grid{}, fmt.Errorf("cpu: grid steps must be positive, got %v", steps)
	}
	for i := 1; i < len(steps); i++ {
		if steps[i] <= steps[i-1] {
			return Grid{}, fmt.Errorf("cpu: grid steps must be strictly ascending, got %v", steps)
		}
	}
	out := make([]int, len(steps))
	copy(out, steps)
	return Grid{steps: out}, nil
}

// Steps returns a copy of the grid's frequency steps in MHz.
func (g Grid) Steps() []int {
	out := make([]int, len(g.steps))
	copy(out, g.steps)
	return out
}

// Len returns the number of steps.
func (g Grid) Len() int { return len(g.steps) }

// Min returns the lowest frequency.
func (g Grid) Min() int { return g.steps[0] }

// Max returns the highest frequency.
func (g Grid) Max() int { return g.steps[len(g.steps)-1] }

// Step returns the i-th frequency (ascending).
func (g Grid) Step(i int) int { return g.steps[i] }

// Index returns the position of fMHz in the grid, or -1 if absent.
func (g Grid) Index(fMHz int) int {
	for i, s := range g.steps {
		if s == fMHz {
			return i
		}
	}
	return -1
}

// ClampUp returns the lowest grid step >= fMHz, or Max if fMHz exceeds the
// grid. This is how Rubik's analytic frequency constraint (a real number)
// is mapped onto the hardware's discrete steps without violating the tail.
// NaN, which no step reaches, yields Max.
func (g Grid) ClampUp(fMHz float64) int {
	for _, s := range g.steps {
		if float64(s) >= fMHz {
			return s
		}
	}
	return g.Max()
}
