package stats

import (
	"fmt"
	"math"
)

// Pearson returns the Pearson correlation coefficient of two equal-length
// series. It reproduces the paper's Table 1 analysis (correlation of
// response latency with service time, instantaneous QPS, and queue length).
func Pearson(x, y []float64) (float64, error) {
	if len(x) != len(y) {
		return 0, fmt.Errorf("stats: Pearson length mismatch: %d vs %d", len(x), len(y))
	}
	if len(x) < 2 {
		return 0, fmt.Errorf("stats: Pearson needs at least 2 points, got %d", len(x))
	}
	n := float64(len(x))
	var sx, sy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
	}
	mx, my := sx/n, sy/n
	var sxy, sxx, syy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0, nil // a constant series is uncorrelated with anything
	}
	return sxy / math.Sqrt(sxx*syy), nil
}
