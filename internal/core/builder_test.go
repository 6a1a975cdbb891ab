package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"rubik/internal/stats"
	"rubik/internal/stats/oracle"
)

// referenceTable is the oracle build: a table holding the reference's
// moments, row bounds, discounts, head tails and exact tails, plus every
// entry (c[r][i], m[r][i]) computed here in test code, so the entries the
// production table derives are checked against an independent formula.
type referenceTable struct {
	*TailTable
	c, m [][]float64
}

// referenceTailTable is the pre-builder one-shot table build, kept
// verbatim (the naive oracle chain, fresh allocations everywhere, every
// column and entry computed up front) as the oracle the allocation-free,
// lazily filled pipeline is checked against.
func referenceTailTable(computeSamples, memSamples []float64, percentile float64, nbuckets, rows, maxQueue int) (*referenceTable, error) {
	naiveC, err := oracle.NewPMFFromSamples(computeSamples, nbuckets)
	if err != nil {
		return nil, err
	}
	naiveM, err := oracle.NewPMFFromSamples(memSamples, nbuckets)
	if err != nil {
		return nil, err
	}
	distC, distM := stats.PMF(naiveC), stats.PMF(naiveM)
	ref := &referenceTable{}
	t := &TailTable{
		Percentile: percentile,
		MaxQueue:   maxQueue,
		meanC:      distC.Mean(),
		varC:       distC.Variance(),
		meanM:      distM.Mean(),
		varM:       distM.Variance(),
	}
	exactC := make([]float64, maxQueue)
	exactM := make([]float64, maxQueue)
	cs, err := oracle.IterConvolutions(naiveC, naiveC, maxQueue)
	if err != nil {
		return nil, err
	}
	msum, err := oracle.IterConvolutions(naiveM, naiveM, maxQueue)
	if err != nil {
		return nil, err
	}
	for i := 0; i < maxQueue; i++ {
		exactC[i] = stats.PMF(cs[i]).Quantile(percentile)
		exactM[i] = stats.PMF(msum[i]).Quantile(percentile)
	}
	for r := 0; r < rows; r++ {
		q := float64(r) / float64(rows)
		var boundC, boundM float64
		if r > 0 {
			boundC = distC.Quantile(q)
			boundM = distM.Quantile(q)
		}
		t.rowBoundsC = append(t.rowBoundsC, boundC)
		t.rowBoundsM = append(t.rowBoundsM, boundM)
		condC := stats.PMF(naiveC.ConditionAtLeast(boundC))
		condM := stats.PMF(naiveM.ConditionAtLeast(boundM))
		discC := t.meanC - condC.Mean()
		discM := t.meanM - condM.Mean()
		if discC < 0 {
			discC = 0
		}
		if discM < 0 {
			discM = 0
		}
		headC := condC.Quantile(percentile)
		headM := condM.Quantile(percentile)
		cRow := make([]float64, maxQueue)
		mRow := make([]float64, maxQueue)
		for i := 0; i < maxQueue; i++ {
			cRow[i] = maxf(exactC[i]-discC, headC)
			mRow[i] = maxf(exactM[i]-discM, headM)
		}
		ref.c = append(ref.c, cRow)
		ref.m = append(ref.m, mRow)
		t.discC = append(t.discC, discC)
		t.discM = append(t.discM, discM)
		t.headC = append(t.headC, headC)
		t.headM = append(t.headM, headM)
	}
	t.exactC, t.exactM = exactC, exactM
	t.built = maxQueue
	t.ready = make([]bool, rows)
	for r := range t.ready {
		t.ready[r] = true
	}
	ref.TailTable = t
	return ref, nil
}

// materialize conditions every row and fills every column a lazily built
// table has not, so tests can read the per-row and per-column fields
// directly.
func materialize(tb *TailTable) {
	for r, ready := range tb.ready {
		if !ready {
			tb.materializeRow(r)
		}
	}
	if tb.built < tb.MaxQueue {
		tb.fill(tb.MaxQueue - 1)
	}
}

// tablesBitwiseEqual materializes both tables and compares every field
// and every in-table Lookup by raw bits.
func tablesBitwiseEqual(t *testing.T, got, want *TailTable) {
	t.Helper()
	materialize(got)
	materialize(want)
	bits := math.Float64bits
	if got.Percentile != want.Percentile || got.MaxQueue != want.MaxQueue {
		t.Fatalf("header mismatch: %+v vs %+v", got, want)
	}
	if bits(got.meanC) != bits(want.meanC) || bits(got.varC) != bits(want.varC) ||
		bits(got.meanM) != bits(want.meanM) || bits(got.varM) != bits(want.varM) {
		t.Fatal("moment mismatch")
	}
	if got.Rows() != want.Rows() {
		t.Fatalf("rows %d vs %d", got.Rows(), want.Rows())
	}
	for i := 0; i < want.MaxQueue; i++ {
		if bits(got.exactC[i]) != bits(want.exactC[i]) || bits(got.exactM[i]) != bits(want.exactM[i]) {
			t.Fatalf("column %d exact tails: got (%v,%v) want (%v,%v)",
				i, got.exactC[i], got.exactM[i], want.exactC[i], want.exactM[i])
		}
	}
	for r := 0; r < want.Rows(); r++ {
		if bits(got.rowBoundsC[r]) != bits(want.rowBoundsC[r]) ||
			bits(got.rowBoundsM[r]) != bits(want.rowBoundsM[r]) ||
			bits(got.discC[r]) != bits(want.discC[r]) ||
			bits(got.discM[r]) != bits(want.discM[r]) ||
			bits(got.headC[r]) != bits(want.headC[r]) ||
			bits(got.headM[r]) != bits(want.headM[r]) {
			t.Fatalf("row %d bounds/discounts/heads mismatch", r)
		}
		for i := 0; i < want.MaxQueue; i++ {
			gc, gm := got.Lookup(r, i)
			wc, wm := want.Lookup(r, i)
			if bits(gc) != bits(wc) || bits(gm) != bits(wm) {
				t.Fatalf("entry (%d,%d): got (%v,%v) want (%v,%v)", r, i, gc, gm, wc, wm)
			}
		}
	}
}

// matchesReference requires got to equal the reference build field for
// field, and every Lookup(r, i) of got to equal the entry the reference
// computed in test code, bit for bit.
func matchesReference(t *testing.T, got *TailTable, want *referenceTable) {
	t.Helper()
	tablesBitwiseEqual(t, got, want.TailTable)
	bits := math.Float64bits
	for r := range want.c {
		for i := range want.c[r] {
			gc, gm := got.Lookup(r, i)
			if bits(gc) != bits(want.c[r][i]) || bits(gm) != bits(want.m[r][i]) {
				t.Fatalf("entry (%d,%d): got (%v,%v) reference (%v,%v)",
					r, i, gc, gm, want.c[r][i], want.m[r][i])
			}
		}
	}
}

func randomSamples(r *rand.Rand, n int) ([]float64, []float64) {
	comp := make([]float64, n)
	mem := make([]float64, n)
	for i := range comp {
		comp[i] = 250e3 * (0.5 + r.Float64())
		mem[i] = 20e3 * (0.5 + r.Float64())
	}
	return comp, mem
}

// checkSlidingRebuilds feeds rounds batches of sampleN() samples through
// one builder, with the profile window sliding, and requires every
// refreshed table to match referenceTailTable over the same window bit for
// bit.
func checkSlidingRebuilds(t *testing.T, r *rand.Rand, percentile float64, nbuckets, rows, maxQueue, capacity, rounds int, sampleN func() int) {
	t.Helper()
	b, err := NewTableBuilder(percentile, nbuckets, rows, maxQueue)
	if err != nil {
		t.Fatal(err)
	}
	histC := stats.NewHistogram(capacity)
	histM := stats.NewHistogram(capacity)
	var allC, allM []float64
	for round := 0; round < rounds; round++ {
		comp, mem := randomSamples(r, sampleN())
		for i := range comp {
			histC.Push(comp[i])
			histM.Push(mem[i])
		}
		allC = append(allC, comp...)
		allM = append(allM, mem...)
		windowC, windowM := allC, allM
		if len(windowC) > capacity {
			windowC = windowC[len(windowC)-capacity:]
			windowM = windowM[len(windowM)-capacity:]
		}
		got, rebuilt, err := b.Rebuild(histC, histM)
		if err != nil {
			t.Fatal(err)
		}
		if !rebuilt {
			t.Fatal("gate disabled but rebuild skipped")
		}
		want, err := referenceTailTable(windowC, windowM, percentile, nbuckets, rows, maxQueue)
		if err != nil {
			t.Fatal(err)
		}
		matchesReference(t, got, want)
	}
}

// TestBuilderMatchesReferenceBitwise checks the end-to-end pipeline
// equivalence: streaming histograms + packed convolutions + in-place
// refill must reproduce the naive allocate-everything build bit for bit,
// across repeated reuse of the same builder. The packed convolutions
// differ from the naive chain at the ulp level; every table entry is a
// bucket-edge quantile, whose slack absorbs that noise on these
// continuously distributed profiles.
func TestBuilderMatchesReferenceBitwise(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nbuckets := 1 + r.Intn(130)
		rows := 1 + r.Intn(8)
		maxQueue := 1 + r.Intn(16)
		percentile := 0.9 + 0.09*r.Float64()
		capacity := 64 + r.Intn(256)
		checkSlidingRebuilds(t, r, percentile, nbuckets, rows, maxQueue, capacity, 3,
			func() int { return 32 + r.Intn(300) })
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestPackedBuilderMatchesReferenceTables pins the packed pipeline to the
// naive oracle at fixed seeds and shapes, so the table-level equality is
// deterministic at the paper shape, at non-power-of-two bucket counts and
// at tiny tables; the bound-level guarantee lives in the stats property
// and fuzz tests.
func TestPackedBuilderMatchesReferenceTables(t *testing.T) {
	shapes := []struct{ nbuckets, rows, maxQueue int }{
		{128, 8, 16}, // paper shape
		{64, 4, 8},
		{32, 1, 4},
		{130, 8, 16}, // non-power-of-two buckets
		{1, 2, 3},
	}
	for seed := int64(0); seed < 12; seed++ {
		r := rand.New(rand.NewSource(seed))
		for _, s := range shapes {
			checkSlidingRebuilds(t, r, 0.95, s.nbuckets, s.rows, s.maxQueue, 512, 2,
				func() int { return 128 + r.Intn(256) })
		}
	}
	for _, c := range bucketEdgeProfiles() {
		for _, s := range shapes {
			b, err := NewTableBuilder(c.percentile, s.nbuckets, s.rows, s.maxQueue)
			if err != nil {
				t.Fatal(err)
			}
			histC, histM := stats.NewHistogram(len(c.comp)), stats.NewHistogram(len(c.mem))
			for i := range c.comp {
				histC.Push(c.comp[i])
				histM.Push(c.mem[i])
			}
			got, _, err := b.Rebuild(histC, histM)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			want, err := referenceTailTable(c.comp, c.mem, c.percentile, s.nbuckets, s.rows, s.maxQueue)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			name := fmt.Sprintf("%s-%dx%dx%d", c.name, s.nbuckets, s.rows, s.maxQueue)
			t.Run(name, func(t *testing.T) { matchesReference(t, got, want) })
		}
	}
}

// bucketEdgeProfile is a fixed profile pair whose tail mass crosses the
// percentile exactly at a bucket boundary, where column 0's quantile
// (read straight off the profile by the builder, off an FFT round trip
// by the oracle) depends on the quantile's 1e-12 slack.
type bucketEdgeProfile struct {
	name       string
	percentile float64
	comp, mem  []float64
}

// bucketEdgeProfiles returns the fixed bucket-edge cases: n samples of
// which exactly percentile*n sit in the low buckets and the rest at the
// maximum (20 and 40 samples at p95, whose 1/n sample weights are
// inexact in binary; 8,192 at p93.75, the percentile a power-of-two count
// can hit exactly), a single-bucket profile and a two-point profile.
func bucketEdgeProfiles() []bucketEdgeProfile {
	edge := func(n int, percentile float64) ([]float64, []float64) {
		low := int(math.Round(percentile * float64(n)))
		comp := make([]float64, n)
		mem := make([]float64, n)
		for i := range comp {
			comp[i], mem[i] = 4e5, 5e4
			if i < low {
				comp[i] = 1e5 * (1 + float64(i)/float64(low))
				mem[i] = 1e4 * (1 + float64(i%7)/7)
			}
		}
		return comp, mem
	}
	var cases []bucketEdgeProfile
	for _, c := range []struct {
		n          int
		percentile float64
	}{{20, 0.95}, {40, 0.95}, {8192, 0.9375}} {
		comp, mem := edge(c.n, c.percentile)
		cases = append(cases, bucketEdgeProfile{fmt.Sprintf("edge%d", c.n), c.percentile, comp, mem})
	}
	single := func(v float64) []float64 {
		s := make([]float64, 40)
		for i := range s {
			s[i] = v
		}
		return s
	}
	cases = append(cases, bucketEdgeProfile{"single-bucket", 0.95, single(1e5), single(2e4)})
	twoC, twoM := make([]float64, 20), make([]float64, 20)
	for i := range twoC {
		twoC[i], twoM[i] = 1e5, 2e4
		if i >= 19 {
			twoC[i], twoM[i] = 3e5, 6e4
		}
	}
	cases = append(cases, bucketEdgeProfile{"two-point", 0.95, twoC, twoM})
	return cases
}

func TestBuilderDegenerateProfile(t *testing.T) {
	// All-equal samples collapse to single-bucket PMFs (delta chains); the
	// builder must switch to the size-1 plan and still match the reference.
	b, err := NewTableBuilder(0.95, 128, 8, 16)
	if err != nil {
		t.Fatal(err)
	}
	histC, histM := stats.NewHistogram(64), stats.NewHistogram(64)
	for i := 0; i < 50; i++ {
		histC.Push(1e5)
		histM.Push(2e4)
	}
	got, _, err := b.Rebuild(histC, histM)
	if err != nil {
		t.Fatal(err)
	}
	samples := make([]float64, 50)
	memS := make([]float64, 50)
	for i := range samples {
		samples[i] = 1e5
		memS[i] = 2e4
	}
	want, err := referenceTailTable(samples, memS, 0.95, 128, 8, 16)
	if err != nil {
		t.Fatal(err)
	}
	matchesReference(t, got, want)

	// And a later non-degenerate refresh on the same builder recovers.
	r := rand.New(rand.NewSource(9))
	comp, mem := randomSamples(r, 64)
	for i := range comp {
		histC.Push(comp[i])
		histM.Push(mem[i])
	}
	if _, _, err := b.Rebuild(histC, histM); err != nil {
		t.Fatal(err)
	}
}

func TestBuilderRebuildAllocationFree(t *testing.T) {
	b, err := NewTableBuilder(0.95, 128, 8, 16)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(8))
	histC, histM := stats.NewHistogram(4096), stats.NewHistogram(4096)
	comp, mem := randomSamples(r, 4096)
	for i := range comp {
		histC.Push(comp[i])
		histM.Push(mem[i])
	}
	refresh := func() {
		tbl, _, err := b.Rebuild(histC, histM)
		if err != nil {
			t.Fatal(err)
		}
		tbl.Lookup(0, 15) // lazy fill of every deeper column
	}
	refresh() // warm buffers
	allocs := testing.AllocsPerRun(5, refresh)
	if allocs != 0 {
		t.Fatalf("steady-state Rebuild plus full lazy fill allocates %v/op, want 0", allocs)
	}
}

// TestPackedBuilderRebuildAllocationFree checks that the packed plan cache
// keeps warm rebuilds allocation-free when the window alternates between
// a delta profile (size-1 plan) and a spread one (full-size plan), at a
// non-power-of-two bucket count.
func TestPackedBuilderRebuildAllocationFree(t *testing.T) {
	b, err := NewTableBuilder(0.95, 130, 8, 16)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(8))
	spreadC, spreadM := stats.NewHistogram(1024), stats.NewHistogram(1024)
	comp, mem := randomSamples(r, 1024)
	for i := range comp {
		spreadC.Push(comp[i])
		spreadM.Push(mem[i])
	}
	deltaC, deltaM := stats.NewHistogram(64), stats.NewHistogram(64)
	for i := 0; i < 50; i++ {
		deltaC.Push(1e5)
		deltaM.Push(2e4)
	}
	rebuild := func(histC, histM *stats.Histogram) {
		tbl, _, err := b.Rebuild(histC, histM)
		if err != nil {
			t.Fatal(err)
		}
		tbl.Lookup(0, 15) // lazy fill of every deeper column
	}
	rebuild(spreadC, spreadM) // warm both plans and all buffers
	rebuild(deltaC, deltaM)
	if len(b.packedPlans) != 2 {
		t.Fatalf("builder caches %d packed plans, want a size-1 and a full-size one", len(b.packedPlans))
	}
	allocs := testing.AllocsPerRun(5, func() {
		rebuild(spreadC, spreadM)
		rebuild(deltaC, deltaM)
	})
	if allocs != 0 {
		t.Fatalf("warm packed Rebuild plus full lazy fill, alternating plans, allocates %v/op, want 0", allocs)
	}
}

// TestDriftGateTransitions exercises the skip/refresh state machine: a
// still profile is skipped, a drifted one refreshes and re-arms the gate,
// and a zero threshold never skips.
func TestDriftGateTransitions(t *testing.T) {
	b, err := NewTableBuilder(0.95, 64, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	b.DriftThreshold = 0.05
	histC, histM := stats.NewHistogram(2048), stats.NewHistogram(2048)
	r := rand.New(rand.NewSource(12))
	push := func(scale float64, n int) {
		for i := 0; i < n; i++ {
			histC.Push(scale * 250e3 * (0.5 + r.Float64()))
			histM.Push(scale * 20e3 * (0.5 + r.Float64()))
		}
	}
	push(1, 2048)
	if _, rebuilt, err := b.Rebuild(histC, histM); err != nil || !rebuilt {
		t.Fatalf("first refresh must build (rebuilt=%v err=%v)", rebuilt, err)
	}

	// A handful of new same-distribution samples: profile barely moves.
	push(1, 64)
	tbl, rebuilt, err := b.Rebuild(histC, histM)
	if err != nil {
		t.Fatal(err)
	}
	if rebuilt {
		t.Fatal("still profile must be skipped")
	}
	if tbl != b.Table() {
		t.Fatal("skip must return the existing table")
	}
	if b.Skips() != 1 || b.Builds() != 1 {
		t.Fatalf("builds=%d skips=%d", b.Builds(), b.Skips())
	}

	// Shift the workload 2x: the mean moves far beyond 5%.
	push(2, 2048)
	if _, rebuilt, err = b.Rebuild(histC, histM); err != nil || !rebuilt {
		t.Fatalf("drifted profile must rebuild (rebuilt=%v err=%v)", rebuilt, err)
	}
	// The gate re-arms against the post-drift profile.
	push(2, 64)
	if _, rebuilt, err = b.Rebuild(histC, histM); err != nil || rebuilt {
		t.Fatalf("post-drift still profile must be skipped (rebuilt=%v err=%v)", rebuilt, err)
	}

	// Threshold 0 always rebuilds, even with an unchanged window.
	b2, err := NewTableBuilder(0.95, 64, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, rebuilt, err := b2.Rebuild(histC, histM); err != nil || !rebuilt {
			t.Fatalf("ungated refresh %d skipped (rebuilt=%v err=%v)", i, rebuilt, err)
		}
	}
	if b2.Skips() != 0 || b2.Builds() != 3 {
		t.Fatalf("ungated builds=%d skips=%d", b2.Builds(), b2.Skips())
	}
}

// TestRubikDriftGateCounters checks the gate end to end through the
// controller: gated refreshes under a steady profile skip, and the
// config knob defaults to off.
func TestRubikDriftGateCounters(t *testing.T) {
	cfg := DefaultConfig(1e6)
	cfg.DriftThreshold = 0.05
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Name() != "rubik-driftgate" {
		t.Fatalf("name %q", r.Name())
	}
	rng := rand.New(rand.NewSource(13))
	comp, mem := randomSamples(rng, 512)
	if err := r.Bootstrap(comp, mem); err != nil {
		t.Fatal(err)
	}
	if r.TableBuilds() != 1 || r.TableSkips() != 0 {
		t.Fatalf("builds=%d skips=%d", r.TableBuilds(), r.TableSkips())
	}
	// Unchanged profile: the periodic refresh must skip.
	if err := r.rebuild(); err != nil {
		t.Fatal(err)
	}
	if r.TableBuilds() != 1 || r.TableSkips() != 1 {
		t.Fatalf("builds=%d skips=%d", r.TableBuilds(), r.TableSkips())
	}
}

// TestRowForMatchesLinearScan pins the binary search to the scan it
// replaced, including duplicate bounds from heavy-tailed profiles.
func TestRowForMatchesLinearScan(t *testing.T) {
	scan := func(tt *TailTable, elapsed float64) int {
		row := 0
		for r := 1; r < len(tt.rowBoundsC); r++ {
			if tt.rowBoundsC[r] <= elapsed {
				row = r
			}
		}
		return row
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 64 + r.Intn(512)
		comp := make([]float64, n)
		mem := make([]float64, n)
		for i := range comp {
			// Occasional ties produce duplicate quantile bounds.
			comp[i] = float64(1+r.Intn(6)) * 1e5
			mem[i] = 20e3 * (0.5 + r.Float64())
		}
		tt := sampleTable(t, comp, mem, 0.95, 32, 1+r.Intn(12), 4)
		for trial := 0; trial < 64; trial++ {
			elapsed := r.Float64() * 8e5
			if got, want := tt.RowFor(elapsed), scan(tt, elapsed); got != want {
				t.Fatalf("RowFor(%v) = %d, scan says %d (bounds %v)",
					elapsed, got, want, tt.rowBoundsC)
			}
		}
		// Exactly-on-boundary lookups too.
		for _, bound := range tt.rowBoundsC {
			if got, want := tt.RowFor(bound), scan(tt, bound); got != want {
				t.Fatalf("RowFor(bound %v) = %d, scan says %d", bound, got, want)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
