// Package core implements the paper's primary contribution: Rubik, the
// fast analytical per-core DVFS controller for latency-critical systems.
//
// Rubik treats the work of each request as two random variables — compute
// cycles C (scale with frequency) and memory-bound time M (do not) — whose
// distributions it profiles online. The completion distribution of the
// request at queue position i is S_i = S_0 + S + ... + S (i-fold
// convolution), where S_0 conditions the service distribution on the work
// the in-service request has already received. Rubik precomputes the tail
// quantiles of these distributions into small lookup tables (the "target
// tail tables", paper Fig. 5) every 100 ms, and on every request arrival
// and completion picks the lowest frequency satisfying paper Eq. 2:
//
//	f >= max_i  c_i / (L - (t_i + m_i))
//
// A small PI feedback loop trims Rubik's internal latency target using the
// measured tail over a rolling window (paper Sec. 4.2, "Feedback-based
// fine-tuning").
package core

import (
	"fmt"

	"rubik/internal/stats"
)

// TailTable is the pair of precomputed target tail tables (compute cycles
// and memory time). Rows condition on the elapsed work of the in-service
// request (omega), quantized to octiles as in the paper's implementation;
// columns are queue positions 0..MaxQueue-1. Positions beyond the table use
// the Gaussian (CLT) extension.
//
// A table a TableBuilder owns materializes its columns lazily: a refresh
// fills column 0 and everything the rows share, and Lookup fills columns
// 1..MaxQueue-1 the first time a decision reads them. Lookup on such a
// table therefore mutates it, and like the builder it is confined to the
// controller that owns it. Tables from BuildTailTable are fully
// materialized and read-only.
type TailTable struct {
	// Percentile is the tail percentile the table targets (e.g. 0.95).
	Percentile float64
	// MaxQueue is the number of explicit columns (paper: 16).
	MaxQueue int

	// rowBoundsC[r] is the elapsed-cycles conditioning point of row r;
	// rows are selected as the largest r with rowBoundsC[r] <= omega.
	rowBoundsC []float64
	rowBoundsM []float64

	// c[r][i] is the tail cycles-until-completion of the request at queue
	// position i when the head's elapsed work falls in row r; m[r][i] is
	// the tail memory time (ns).
	//
	// Row 0 (omega = 0) holds the exact convolved tails Q(C^(*(i+1))).
	// Rows r > 0 discount row 0 by the *mean* work the head has already
	// completed: c[r][i] = c[0][i] - (E[C] - E[C0|row r]). Under the
	// Gaussian view of the sum this is conservative — conditioning shrinks
	// the exact tail by at least the mean shift — while sharing one set of
	// FFT convolutions across all rows, which is what keeps the periodic
	// update within the paper's sub-millisecond budget (Sec. 4.2 reports
	// 0.2 ms per update). Each entry is floored at the row's own
	// conditioned head tail (headC[r], headM[r]).
	//
	// Only columns 0..built-1 are valid; Lookup fills the rest from src.
	c [][]float64
	m [][]float64

	// Base moments for the Gaussian extension of the exact sum tails.
	meanC, varC float64
	meanM, varM float64
	// Per-row mean discounts, for extending rows past MaxQueue.
	discC, discM []float64
	// Per-row conditioned head tails, the floor of every entry in the row.
	headC, headM []float64

	// built is the number of leading columns materialized. src is the
	// builder holding the profiles the table was built from, from which
	// columns built..MaxQueue-1 are derived on demand; it is nil for
	// tables no builder owns (cache entries and BuildTailTable results).
	built int
	src   *TableBuilder
}

// BuildTailTable constructs the tables from per-request compute-cycle and
// memory-time samples, using nbuckets-bucket distributions (paper: 128),
// rows octile rows (paper: 8), and maxQueue explicit queue positions
// (paper: 16). It is the periodic "update the service cycle and time
// distributions, perform the convolutions, and fill in the c_i and m_i
// values" step of paper Sec. 4.2.
//
// It is a thin one-shot wrapper over TableBuilder that materializes every
// column and detaches the table from the builder, so the result is
// read-only and safe to share. Controllers that refresh periodically hold
// a builder for their lifetime instead, which makes every refresh after
// the first allocation-free and defers each column to its first use.
func BuildTailTable(computeSamples, memSamples []float64, percentile float64, nbuckets, rows, maxQueue int) (*TailTable, error) {
	if len(computeSamples) == 0 || len(memSamples) == 0 {
		return nil, fmt.Errorf("core: no profiling samples")
	}
	b, err := NewTableBuilder(percentile, nbuckets, rows, maxQueue)
	if err != nil {
		return nil, err
	}
	t, _, err := b.RebuildFromSamples(computeSamples, memSamples)
	if err != nil {
		return nil, err
	}
	t.fill(t.MaxQueue - 1)
	t.src = nil
	return t, nil
}

// Rebuild refills t, the table b owns, from the profiles binned into b's
// scratch (b.binC, b.binM), whose moments the caller passes so they are
// computed once per refresh. It runs no transform: it commits the bins,
// fills everything the rows share (row bounds, mean discounts,
// conditioned head tails) and materializes column 0, which the Gaussian
// extension also reads and which needs only the profiles themselves.
// Lookup fills deeper columns on first use, the first of them starting
// the packed plan. Before it commits anything, Rebuild rejects every
// input the plan's Start would reject (for binned profiles, only an
// empty one): a failed rebuild leaves the previous table, and the inputs
// its pending columns derive from, intact, and a later fill cannot fail.
func (t *TailTable) Rebuild(b *TableBuilder, meanC, varC, meanM, varM float64) error {
	if len(b.binC.P) == 0 || len(b.binM.P) == 0 {
		return fmt.Errorf("core: empty profiled distribution")
	}
	b.commitBins()
	maxQueue, rows, percentile := b.maxQueue, b.rows, b.percentile
	distC, distM := b.distC, b.distM

	t.Percentile = percentile
	t.MaxQueue = maxQueue
	t.meanC, t.varC = meanC, varC
	t.meanM, t.varM = meanM, varM

	// One cumulative pass per profiled distribution answers every row
	// bound below; QuantileFromCum is bitwise-identical to the per-row
	// Quantile scans it replaces.
	b.cumC = distC.CumSumInto(b.cumC)
	b.cumM = distM.CumSumInto(b.cumM)

	for r := 0; r < rows; r++ {
		q := float64(r) / float64(rows)
		var boundC, boundM float64
		if r > 0 {
			boundC = distC.QuantileFromCum(b.cumC, q)
			boundM = distM.QuantileFromCum(b.cumM, q)
		}
		t.rowBoundsC[r] = boundC
		t.rowBoundsM[r] = boundM

		condC := distC.ConditionAtLeastInto(b.condC, boundC)
		condM := distM.ConditionAtLeastInto(b.condM, boundM)
		discC := t.meanC - condC.Mean()
		discM := t.meanM - condM.Mean()
		if discC < 0 {
			discC = 0
		}
		if discM < 0 {
			discM = 0
		}
		t.discC[r] = discC
		t.discM[r] = discM
		t.headC[r] = condC.Quantile(percentile)
		t.headM[r] = condM.Quantile(percentile)
	}
	t.built = 0
	t.fill(0)
	return nil
}

// fill materializes columns built..i (i < MaxQueue) from the builder's
// committed profiles: each column's exact sum tails for a fresh head are
// quantiles of one chain row, and every row's entry discounts them and
// floors at the row's head tail. Row 0 of the chain is the profile
// itself, so column 0 reads its quantiles straight off distC/distM;
// deeper columns read packed chain rows, and the first of them after a
// commit runs the forward transform. The packed row 0 would be the
// profile up to ulp noise, which the quantile's bucket-edge slack
// absorbs, so both routes give the same bits. Start and RowInto fail
// only on inputs Rebuild rejects or a plan/input mismatch the builder
// rules out, so an error here is a bug.
func (t *TailTable) fill(i int) {
	b := t.src
	for j := t.built; j <= i; j++ {
		var exactC, exactM float64
		if j == 0 {
			exactC = b.distC.Quantile(t.Percentile)
			exactM = b.distM.Quantile(t.Percentile)
		} else {
			if b.plan == nil {
				if err := b.startPlan(); err != nil {
					panic(fmt.Sprintf("core: tail-table column fill: %v", err))
				}
			}
			if err := b.plan.RowInto(j, &b.rowC, &b.rowM); err != nil {
				panic(fmt.Sprintf("core: tail-table column %d: %v", j, err))
			}
			exactC = b.rowC.Quantile(t.Percentile)
			exactM = b.rowM.Quantile(t.Percentile)
		}
		for r := range t.c {
			t.c[r][j] = maxf(exactC-t.discC[r], t.headC[r])
			t.m[r][j] = maxf(exactM-t.discM[r], t.headM[r])
		}
	}
	t.built = i + 1
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// RowFor returns the table row for a head request with elapsedCycles of
// compute work already performed: the largest row whose conditioning point
// is at or below the elapsed work. Row bounds are quantiles of the
// profiled distribution at increasing q, hence nondecreasing, so a binary
// search suffices; RowFor runs on every arrival, completion, and tick.
func (t *TailTable) RowFor(elapsedCycles float64) int {
	lo, hi := 1, len(t.rowBoundsC) // find first bound > elapsed in [1, n)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if t.rowBoundsC[mid] <= elapsedCycles {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo - 1
}

// Lookup returns the tail cycles c_i and tail memory time m_i (ns) for the
// request at queue position i given the head's row. Positions at or beyond
// MaxQueue use the Gaussian extension (paper Sec. 4.2, "Large queues").
// The first Lookup of a column not yet materialized fills it and every
// column before it.
func (t *TailTable) Lookup(row, i int) (ci, mi float64) {
	if row < 0 {
		row = 0
	}
	if row >= len(t.c) {
		row = len(t.c) - 1
	}
	if i < t.MaxQueue {
		if i >= t.built {
			t.fill(i)
		}
		return t.c[row][i], t.m[row][i]
	}
	// Gaussian (CLT) extension of the exact sum tails, with the same
	// per-row mean discount as the in-table entries (paper Sec. 4.2,
	// "Large queues").
	n := float64(i + 1)
	ci = stats.GaussianTail(n*t.meanC, n*t.varC, t.Percentile) - t.discC[row]
	mi = stats.GaussianTail(n*t.meanM, n*t.varM, t.Percentile) - t.discM[row]
	if ci < t.c[row][0] {
		ci = t.c[row][0]
	}
	if mi < t.m[row][0] {
		mi = t.m[row][0]
	}
	return ci, mi
}

// Rows returns the number of omega rows.
func (t *TailTable) Rows() int { return len(t.c) }
