package core

import (
	"fmt"
	"math"

	"rubik/internal/stats"
)

// TableBuilder is the persistent, allocation-free rebuild pipeline behind
// a controller's target tail tables. It owns everything a periodic refresh
// and its later column fills need — the packed FFT convolution plans
// (twiddles, bit-reversal, scratch), the profiled-distribution buffers,
// the convolution row buffers, and the TailTable itself, which Rebuild
// refills in place. A controller creates one builder for its lifetime;
// every refresh after the first then performs zero steady-state
// allocations, which is what keeps the paper's periodic update inside
// its 0.2 ms budget (Sec. 4.2) once the cluster layer multiplies refresh
// frequency by the core count.
//
// The convolutions run through the packed real-FFT pipeline
// (stats.PackedConvolutionPlan): both chains ride one complex transform
// with Hermitian half-spectra and size-pruned inverses. It rounds
// differently from the naive convolution chain at the ulp level, but
// every table entry is a bucket-edge quantile of the convolved rows, and
// the quantile's bucket slack absorbs that noise: the finished tables are
// pinned bit for bit against a build over the naive chain (the test
// oracle) across table shapes and profiles.
//
// A refresh runs no transform and conditions no row: column 0 is the
// single-request distribution, whose exact tails are quantiles of the
// profiles themselves, and a refresh computes only those and the row
// bounds. The first decision or Lookup that selects a row conditions it
// (at short refresh periods most tables serve only row 0, a head that
// has not started). The first Lookup of a deeper column runs
// the forward transform, and each deeper column's pruned inverse runs
// when a Lookup first reads it (decisions rarely look past queue position
// 0, and a refresh period whose decisions never do pays no transform at
// all). The builder therefore keeps the profiles the current table was
// built from until the next refresh replaces the table: each refresh
// bins into scratch PMFs and commits them only when it rebuilds or hits
// the cache, so a drift-gate skip or a failed binning leaves the pending
// rows' and columns' inputs untouched.
//
// A builder owns its buffers and is NOT safe for concurrent use; each
// controller holds its own. The same holds for its table, whose Lookup
// fills columns through the builder.
type TableBuilder struct {
	// DriftThreshold gates the expensive part of a refresh: when both
	// profiled distributions have moved less than this relative amount (in
	// mean and standard deviation) since the last full rebuild, Rebuild
	// keeps the existing tables and skips the rebuild. 0 (the default)
	// disables the gate — every refresh rebuilds, and results are
	// byte-identical to the ungated pipeline. Set it from
	// core.Config.DriftThreshold; the tradeoff is staleness: a gated table
	// reacts one threshold-crossing later to workload drift, in exchange
	// for dropping the dominant rebuild cost at steady load.
	DriftThreshold float64

	// Cache, when non-nil, memoizes full rebuilds content-addressed by
	// their exact inputs (both profiled PMFs plus the table shape): a
	// refresh whose inputs match a cached rebuild bit for bit copies the
	// cached table in place instead of rebuilding it, which is
	// bitwise-indistinguishable from rebuilding because the pipeline
	// is a pure function of that key. With lazy rows a hit saves only
	// the row bounds and column 0; every row is still conditioned on
	// first read. Nil (the default) rebuilds
	// privately. The cache is shared across the builders of one goroutine
	// (cluster.RunFleet hands every socket on a shard the same cache);
	// like the builder itself it must not be shared across goroutines.
	Cache *TableCache

	percentile     float64
	nbuckets       int
	rows, maxQueue int

	// packedPlans caches one packed plan per unified transform size of the
	// chain pair. The size is fixed by (nbuckets, maxQueue) in steady
	// state; degenerate profiles (all samples equal -> single-bucket PMF)
	// briefly need a smaller one.
	packedPlans map[int]*stats.PackedConvolutionPlan

	// distC/distM are the profiles the current table was built from, the
	// inputs of its pending columns. binC/binM receive each refresh's
	// binning and are swapped in by commitBins when the refresh replaces
	// the table.
	distC, distM stats.PMF
	binC, binM   stats.PMF
	// plan is the packed plan holding distC/distM's spectra, or nil when
	// the next deeper column fill must run the forward transform first
	// (every commit resets it: neither a rebuild nor a cache hit runs one).
	plan *stats.PackedConvolutionPlan
	// rowC/rowM receive one packed chain row per column fill.
	rowC, rowM stats.PMF

	// Reused buffers, sized on first use.
	condC, condM []float64
	// cumC/cumM hold each profiled distribution's running mass, computed
	// once per rebuild so every row-bound quantile is answered from the
	// same pass instead of rescanning the PMF per row.
	cumC, cumM []float64

	table *TailTable

	// Drift-gate state: moments of the profiles at the last full rebuild.
	haveProfile                              bool
	lastMeanC, lastStdC, lastMeanM, lastStdM float64
	builds, skips, cacheHits                 int

	// memo is what the last successful binning derived from its windows,
	// reused by a refresh of the same unchanged pair.
	memo binMemo

	// probe is the cache key of the refresh in flight, kept on the
	// builder (rather than finish's stack) so taking its address for
	// cache calls does not heap-allocate a key per refresh.
	probe tableKey
}

// binMemo records the histogram pair the last successful binning read,
// by pointer, with both push counts, and what the refresh derived from
// it: the binned profiles' moments and, once a cache probe needed it,
// the key fingerprint. A histogram's window changes only when its push
// count does (stats.Histogram.Pushes), so a refresh of the same pair at
// the same counts would bin the same bits; it reuses the memo instead.
// The pointers matter: two histograms can hold equal counts and
// different windows. Holding them also keeps them alive, so an address
// is never reused by another histogram while the memo names it.
type binMemo struct {
	histC, histM             *stats.Histogram
	pushesC, pushesM         uint64
	meanC, varC, meanM, varM float64
	// committed reports that commitBins has moved this binning into
	// distC/distM; until then it is still in binC/binM.
	committed bool
	// fp is the probe key's fingerprint under fpCache, or unset while
	// fpCache is nil. A fingerprint belongs to its cache, whose hash
	// function tests may replace.
	fpCache *TableCache
	fp      uint64
}

// NewTableBuilder validates the table dimensions and returns a builder
// with its TailTable and working buffers preallocated.
func NewTableBuilder(percentile float64, nbuckets, rows, maxQueue int) (*TableBuilder, error) {
	if !(percentile > 0 && percentile < 1) { // NaN-safe
		return nil, fmt.Errorf("core: percentile %v out of (0,1)", percentile)
	}
	if nbuckets <= 0 {
		return nil, fmt.Errorf("core: nbuckets must be positive, got %d", nbuckets)
	}
	if rows < 1 || maxQueue < 1 {
		return nil, fmt.Errorf("core: rows=%d maxQueue=%d must be positive", rows, maxQueue)
	}
	t := &TailTable{
		Percentile: percentile,
		MaxQueue:   maxQueue,
		rowBoundsC: make([]float64, rows),
		rowBoundsM: make([]float64, rows),
		discC:      make([]float64, rows),
		discM:      make([]float64, rows),
		headC:      make([]float64, rows),
		headM:      make([]float64, rows),
		ready:      make([]bool, rows),
		exactC:     make([]float64, maxQueue),
		exactM:     make([]float64, maxQueue),
	}
	b := &TableBuilder{
		percentile:  percentile,
		nbuckets:    nbuckets,
		rows:        rows,
		maxQueue:    maxQueue,
		packedPlans: map[int]*stats.PackedConvolutionPlan{},
		condC:       make([]float64, nbuckets),
		condM:       make([]float64, nbuckets),
		cumC:        make([]float64, nbuckets),
		cumM:        make([]float64, nbuckets),
		table:       t,
	}
	t.src = b
	return b, nil
}

// Table returns the builder's table (valid after the first successful
// Rebuild; refilled in place by later ones). Its Lookup fills columns
// through the builder, so it shares the builder's confinement.
func (b *TableBuilder) Table() *TailTable { return b.table }

// Builds returns how many refreshes performed the full rebuild.
func (b *TableBuilder) Builds() int { return b.builds }

// Skips returns how many refreshes the drift gate short-circuited.
func (b *TableBuilder) Skips() int { return b.skips }

// CacheHits returns how many refreshes were answered by copying a cached
// rebuild (always 0 with Cache nil; such refreshes count in neither
// Builds nor Skips).
func (b *TableBuilder) CacheHits() int { return b.cacheHits }

// Rebuild refreshes the table from the profilers' current windows. It
// returns the (builder-owned) table and whether a full rebuild happened:
// false means the drift gate found both profiles within DriftThreshold of
// the last rebuild and kept the existing tables. On error the previous
// table is left intact.
//
// A refresh of the pair the last successful binning read, with neither
// window pushed since, bins nothing: it copies that binning back into
// the scratch and reuses its moments and fingerprint (see binMemo). The
// drift gate, the cache probe and the commit then run as for a fresh
// binning, on the same bits.
func (b *TableBuilder) Rebuild(histC, histM *stats.Histogram) (*TailTable, bool, error) {
	m := &b.memo
	if m.histC == histC && m.histM == histM &&
		m.pushesC == histC.Pushes() && m.pushesM == histM.Pushes() {
		if m.committed {
			copyPMF(&b.binC, b.distC)
			copyPMF(&b.binM, b.distM)
		}
		return b.finish()
	}
	*m = binMemo{}
	if err := histC.PMFInto(&b.binC, b.nbuckets); err != nil {
		return nil, false, fmt.Errorf("core: compute distribution: %w", err)
	}
	if err := histM.PMFInto(&b.binM, b.nbuckets); err != nil {
		return nil, false, fmt.Errorf("core: memory distribution: %w", err)
	}
	m.histC, m.histM = histC, histM
	m.pushesC, m.pushesM = histC.Pushes(), histM.Pushes()
	m.meanC, m.varC = b.binC.MeanVariance()
	m.meanM, m.varM = b.binM.MeanVariance()
	return b.finish()
}

// finish runs the drift gate on the binned b.binC/b.binM, whose moments
// and fingerprint the memo holds, and, when it does not fire, refreshes
// the table from them — through the content-addressed cache when one is
// attached (a verified hit copies the cached table's row bounds and
// materialized columns in place, bitwise-identical to rebuilding; rows
// and deeper columns are derived later like a rebuilt table's), by the
// in-place rebuild otherwise.
func (b *TableBuilder) finish() (*TailTable, bool, error) {
	m := &b.memo
	meanC, varC, meanM, varM := m.meanC, m.varC, m.meanM, m.varM
	stdC, stdM := math.Sqrt(varC), math.Sqrt(varM)
	if b.DriftThreshold > 0 && b.haveProfile &&
		relDrift(meanC, stdC, b.lastMeanC, b.lastStdC) <= b.DriftThreshold &&
		relDrift(meanM, stdM, b.lastMeanM, b.lastStdM) <= b.DriftThreshold {
		b.skips++
		return b.table, false, nil
	}
	if b.Cache != nil {
		// The probe key aliases the builder's binning buffers (which stay
		// put when commitBins swaps them in); the cache copies them only
		// when it stores a new entry.
		b.probe = tableKey{
			percentile: b.percentile,
			nbuckets:   b.nbuckets, rows: b.rows, maxQueue: b.maxQueue,
			distC: b.binC, distM: b.binM,
		}
		if m.fpCache != b.Cache {
			m.fp, m.fpCache = b.Cache.fingerprint(&b.probe), b.Cache
		}
		if cached := b.Cache.lookup(m.fp, &b.probe); cached != nil {
			b.commitBins()
			b.table.copyFrom(cached)
			b.noteProfile(meanC, stdC, meanM, stdM)
			b.cacheHits++
			return b.table, true, nil
		}
	}
	if err := b.table.Rebuild(b, meanC, varC, meanM, varM); err != nil {
		return nil, false, err
	}
	if b.Cache != nil {
		b.Cache.insert(m.fp, &b.probe, b.table)
	}
	b.noteProfile(meanC, stdC, meanM, stdM)
	b.builds++
	return b.table, true, nil
}

// commitBins makes the freshly binned profiles the current table's
// inputs, keeping the old buffers as the next refresh's binning scratch.
// No plan holds their spectra yet, so the first deeper column fill
// starts one.
func (b *TableBuilder) commitBins() {
	b.distC, b.binC = b.binC, b.distC
	b.distM, b.binM = b.binM, b.distM
	b.plan = nil
	b.memo.committed = true
}

// copyPMF makes dst a copy of src, reusing dst's buckets when their
// capacity allows.
func copyPMF(dst *stats.PMF, src stats.PMF) {
	dst.Origin, dst.Width = src.Origin, src.Width
	dst.P = resizeCopy(dst.P, src.P)
}

// noteProfile records the profile moments a refresh acted on, the state
// the drift gate measures later refreshes against.
func (b *TableBuilder) noteProfile(meanC, stdC, meanM, stdM float64) {
	b.lastMeanC, b.lastStdC = meanC, stdC
	b.lastMeanM, b.lastStdM = meanM, stdM
	b.haveProfile = true
}

// relDrift measures how far a profile moved relative to its previous
// scale: the larger of the mean shift and the spread shift, normalized by
// the previous distribution's dominant magnitude.
func relDrift(mean, std, lastMean, lastStd float64) float64 {
	scale := math.Max(math.Abs(lastMean), lastStd)
	if scale < 1e-12 {
		scale = 1e-12
	}
	dm := math.Abs(mean-lastMean) / scale
	ds := math.Abs(std-lastStd) / scale
	return math.Max(dm, ds)
}

// startPlan begins the chain pair over the committed profiles on the
// cached plan of their size and makes it b.plan, ready for RowInto,
// which runs the forward transform.
func (b *TableBuilder) startPlan() error {
	plan, err := b.packedPlanFor(stats.PackedPlanSizeFor(len(b.distC.P), len(b.distM.P), b.maxQueue))
	if err != nil {
		return err
	}
	if err := plan.Start(b.distC, b.distM, b.maxQueue); err != nil {
		return err
	}
	b.plan = plan
	return nil
}

// packedPlanFor returns the cached packed plan for unified transform
// size n, building it on first use.
func (b *TableBuilder) packedPlanFor(n int) (*stats.PackedConvolutionPlan, error) {
	if p, ok := b.packedPlans[n]; ok {
		return p, nil
	}
	p, err := stats.NewPackedConvolutionPlan(n)
	if err != nil {
		return nil, err
	}
	b.packedPlans[n] = p
	return p, nil
}
