package stats

import "rubik/internal/stats/oracle"

// The naive oracle has its own PMF type with stats.PMF's layout (it
// cannot import stats); these wrappers convert at the boundary so the
// tests compare stats.PMF values throughout.

func naivePMF(samples []float64, nbuckets int) (PMF, error) {
	d, err := oracle.NewPMFFromSamples(samples, nbuckets)
	return PMF(d), err
}

func naiveChain(s0, s PMF, count int) ([]PMF, error) {
	rows, err := oracle.IterConvolutions(oracle.PMF(s0), oracle.PMF(s), count)
	if err != nil {
		return nil, err
	}
	out := make([]PMF, len(rows))
	for i, r := range rows {
		out[i] = PMF(r)
	}
	return out, nil
}

func naiveConvolve(a, b PMF) (PMF, error) {
	c, err := oracle.Convolve(oracle.PMF(a), oracle.PMF(b))
	return PMF(c), err
}

func naiveCondition(d PMF, omega float64) PMF {
	return PMF(oracle.PMF(d).ConditionAtLeast(omega))
}

// selfConvolutions runs both packed chains in full: Start, then RowInto
// for every row of dstC and dstM.
func selfConvolutions(p *PackedConvolutionPlan, dstC, dstM []PMF, c, m PMF) error {
	if err := p.Start(c, m, len(dstC)); err != nil {
		return err
	}
	for i := range dstC {
		if err := p.RowInto(i, &dstC[i], &dstM[i]); err != nil {
			return err
		}
	}
	return nil
}

// mass returns d's total probability mass.
func mass(d PMF) float64 {
	var m float64
	for _, v := range d.P {
		m += v
	}
	return m
}
