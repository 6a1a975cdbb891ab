package core

import (
	"math"
	"math/rand"
	"testing"

	"rubik/internal/cpu"
	"rubik/internal/queueing"
	"rubik/internal/stats"
)

// eagerTable is the oracle for lazily filled tables: a fresh builder's
// table from the same histograms, every column materialized.
func eagerTable(t *testing.T, percentile float64, nbuckets, rows, maxQueue int, histC, histM *stats.Histogram) *TailTable {
	t.Helper()
	b, err := NewTableBuilder(percentile, nbuckets, rows, maxQueue)
	if err != nil {
		t.Fatal(err)
	}
	tbl, _, err := b.Rebuild(histC, histM)
	if err != nil {
		t.Fatal(err)
	}
	materialize(tbl)
	return tbl
}

// sampleTable is the fully materialized table a fresh builder makes from
// explicit sample slices: each binned whole, oldest first, by a histogram
// whose window holds all of them.
func sampleTable(t *testing.T, computeSamples, memSamples []float64, percentile float64, nbuckets, rows, maxQueue int) *TailTable {
	t.Helper()
	histC, histM := stats.NewHistogram(len(computeSamples)), stats.NewHistogram(len(memSamples))
	for _, v := range computeSamples {
		histC.Push(v)
	}
	for _, v := range memSamples {
		histM.Push(v)
	}
	return eagerTable(t, percentile, nbuckets, rows, maxQueue, histC, histM)
}

// lookupMatches requires got.Lookup(row, i) to equal want.Lookup(row, i)
// bit for bit.
func lookupMatches(t *testing.T, got, want *TailTable, row, i int) {
	t.Helper()
	gc, gm := got.Lookup(row, i)
	wc, wm := want.Lookup(row, i)
	if math.Float64bits(gc) != math.Float64bits(wc) || math.Float64bits(gm) != math.Float64bits(wm) {
		t.Fatalf("Lookup(%d, %d) = (%v, %v), eager (%v, %v)", row, i, gc, gm, wc, wm)
	}
}

func pushSamples(r *rand.Rand, histC, histM *stats.Histogram, n int, scale float64) {
	for i := 0; i < n; i++ {
		histC.Push(scale * 250e3 * (0.5 + r.Float64()))
		histM.Push(scale * 20e3 * (0.5 + r.Float64()))
	}
}

// readyRows lists the materialized rows of tbl.
func readyRows(tbl *TailTable) []int {
	var rows []int
	for r, ready := range tbl.ready {
		if ready {
			rows = append(rows, r)
		}
	}
	return rows
}

// rowMatches requires every explicit column and one extension position
// of row to equal the eager table's, bit for bit, reading the columns
// in a random order.
func rowMatches(t *testing.T, r *rand.Rand, got, want *TailTable, row int) {
	t.Helper()
	for _, i := range r.Perm(got.MaxQueue + 1) {
		lookupMatches(t, got, want, row, i)
	}
}

// TestLazyColumnsMatchEager pins lazily materialized rows and columns to
// a fully materialized table from a fresh builder, bit for bit, on every
// path that can leave a row or a column pending: random orders of rows
// and column depths, a row first read after deeper columns filled, a
// cache hit (whose rows are all pending and whose deep columns rerun the
// forward transform), a drift-gate skip and a failed refresh (neither may
// touch the pending rows' and columns' inputs).
func TestLazyColumnsMatchEager(t *testing.T) {
	const p, nbuckets, rows, maxQueue = 0.95, 128, 8, 16

	t.Run("random lookup order", func(t *testing.T) {
		for seed := int64(0); seed < 8; seed++ {
			r := rand.New(rand.NewSource(seed))
			b, err := NewTableBuilder(p, nbuckets, rows, maxQueue)
			if err != nil {
				t.Fatal(err)
			}
			histC, histM := stats.NewHistogram(1024), stats.NewHistogram(1024)
			for refresh := 0; refresh < 3; refresh++ {
				pushSamples(r, histC, histM, 200+r.Intn(400), 1)
				tbl, _, err := b.Rebuild(histC, histM)
				if err != nil {
					t.Fatal(err)
				}
				want := eagerTable(t, p, nbuckets, rows, maxQueue, histC, histM)
				if got := readyRows(tbl); len(got) != 0 {
					t.Fatalf("refresh materialized rows %v, want none", got)
				}
				// The Gaussian extension first: it reads column 0 only,
				// and conditions only the row it reads.
				row := r.Intn(rows)
				lookupMatches(t, tbl, want, row, maxQueue+r.Intn(8))
				if got := readyRows(tbl); tbl.built != 1 || len(got) != 1 || got[0] != row {
					t.Fatalf("extension lookup of row %d materialized %d columns and rows %v, want 1 and [%d]",
						row, tbl.built, got, row)
				}
				// Rows in a random order, each read at a random depth, so
				// later rows are first read with deeper columns filled.
				for _, row := range r.Perm(rows) {
					lookupMatches(t, tbl, want, row, r.Intn(maxQueue+4))
				}
				for k := 0; k < 40; k++ {
					lookupMatches(t, tbl, want, r.Intn(rows+2)-1, r.Intn(maxQueue+4))
				}
				tablesBitwiseEqual(t, tbl, want)
			}
		}
	})

	t.Run("row first read after deeper columns", func(t *testing.T) {
		r := rand.New(rand.NewSource(13))
		b, err := NewTableBuilder(p, nbuckets, rows, maxQueue)
		if err != nil {
			t.Fatal(err)
		}
		histC, histM := stats.NewHistogram(1024), stats.NewHistogram(1024)
		pushSamples(r, histC, histM, 1024, 1)
		tbl, _, err := b.Rebuild(histC, histM)
		if err != nil {
			t.Fatal(err)
		}
		want := eagerTable(t, p, nbuckets, rows, maxQueue, histC, histM)
		lookupMatches(t, tbl, want, 0, maxQueue-1) // every column, row 0 only
		if got := readyRows(tbl); tbl.built != maxQueue || len(got) != 1 || got[0] != 0 {
			t.Fatalf("deep row-0 read: built=%d rows %v, want %d and [0]", tbl.built, got, maxQueue)
		}
		for _, row := range r.Perm(rows) {
			rowMatches(t, r, tbl, want, row)
		}
		tablesBitwiseEqual(t, tbl, want)
	})

	t.Run("cache hit then deep lookup", func(t *testing.T) {
		r := rand.New(rand.NewSource(3))
		cache := NewTableCache(4)
		b, err := NewTableBuilder(p, nbuckets, rows, maxQueue)
		if err != nil {
			t.Fatal(err)
		}
		b.Cache = cache
		histC1, histM1 := stats.NewHistogram(512), stats.NewHistogram(512)
		histC2, histM2 := stats.NewHistogram(512), stats.NewHistogram(512)
		pushSamples(r, histC1, histM1, 512, 1)
		pushSamples(r, histC2, histM2, 512, 1.5)
		want1 := eagerTable(t, p, nbuckets, rows, maxQueue, histC1, histM1)
		want2 := eagerTable(t, p, nbuckets, rows, maxQueue, histC2, histM2)

		tbl, _, err := b.Rebuild(histC1, histM1) // miss: column 0 cached
		if err != nil {
			t.Fatal(err)
		}
		lookupMatches(t, tbl, want1, 2, maxQueue-1)
		if _, _, err := b.Rebuild(histC2, histM2); err != nil { // miss: plan moves on
			t.Fatal(err)
		}
		lookupMatches(t, tbl, want2, 0, 3)
		if _, _, err := b.Rebuild(histC1, histM1); err != nil { // hit
			t.Fatal(err)
		}
		if got := readyRows(tbl); b.CacheHits() != 1 || tbl.built != 1 || len(got) != 0 {
			t.Fatalf("hit: hits=%d built=%d rows %v, want 1, 1 and none", b.CacheHits(), tbl.built, got)
		}
		lookupMatches(t, tbl, want1, rows-1, maxQueue-1)
		// Rows first read after the hit, and after its deep columns.
		for _, row := range r.Perm(rows) {
			rowMatches(t, r, tbl, want1, row)
		}
		tablesBitwiseEqual(t, tbl, want1)

		// A second builder's first refresh is a hit on the shared cache.
		b2, err := NewTableBuilder(p, nbuckets, rows, maxQueue)
		if err != nil {
			t.Fatal(err)
		}
		b2.Cache = cache
		tbl2, _, err := b2.Rebuild(histC2, histM2)
		if err != nil {
			t.Fatal(err)
		}
		if b2.CacheHits() != 1 {
			t.Fatalf("second builder: hits=%d, want 1", b2.CacheHits())
		}
		lookupMatches(t, tbl2, want2, 1, 0)
		lookupMatches(t, tbl2, want2, 1, maxQueue-1)
		lookupMatches(t, tbl2, want2, 0, 2)
		tablesBitwiseEqual(t, tbl2, want2)
	})

	t.Run("drift-gate skip then deep lookup", func(t *testing.T) {
		r := rand.New(rand.NewSource(5))
		b, err := NewTableBuilder(p, nbuckets, rows, maxQueue)
		if err != nil {
			t.Fatal(err)
		}
		b.DriftThreshold = 0.05
		histC, histM := stats.NewHistogram(2048), stats.NewHistogram(2048)
		pushSamples(r, histC, histM, 2048, 1)
		tbl, _, err := b.Rebuild(histC, histM)
		if err != nil {
			t.Fatal(err)
		}
		want := eagerTable(t, p, nbuckets, rows, maxQueue, histC, histM)
		lookupMatches(t, tbl, want, 2, 1)
		pushSamples(r, histC, histM, 64, 1)
		if _, rebuilt, err := b.Rebuild(histC, histM); err != nil || rebuilt {
			t.Fatalf("still profile must be skipped (rebuilt=%v err=%v)", rebuilt, err)
		}
		if got := readyRows(tbl); len(got) != 1 || got[0] != 2 {
			t.Fatalf("skip changed the materialized rows to %v, want [2]", got)
		}
		lookupMatches(t, tbl, want, 0, maxQueue-1)
		for _, row := range r.Perm(rows) {
			rowMatches(t, r, tbl, want, row)
		}
		tablesBitwiseEqual(t, tbl, want)
	})

	t.Run("failed refresh then deep lookup", func(t *testing.T) {
		r := rand.New(rand.NewSource(7))
		b, err := NewTableBuilder(p, nbuckets, rows, maxQueue)
		if err != nil {
			t.Fatal(err)
		}
		histC, histM := stats.NewHistogram(1024), stats.NewHistogram(1024)
		pushSamples(r, histC, histM, 1024, 1)
		tbl, _, err := b.Rebuild(histC, histM)
		if err != nil {
			t.Fatal(err)
		}
		want := eagerTable(t, p, nbuckets, rows, maxQueue, histC, histM)
		// The compute side bins a different profile fine; the memory side
		// is empty and fails.
		otherC, otherM := stats.NewHistogram(256), stats.NewHistogram(256)
		pushSamples(r, otherC, otherM, 256, 2)
		if _, _, err := b.Rebuild(otherC, stats.NewHistogram(16)); err == nil {
			t.Fatal("empty memory histogram must fail the refresh")
		}
		lookupMatches(t, tbl, want, 0, maxQueue-1)
		rowMatches(t, r, tbl, want, rows-1)
		tablesBitwiseEqual(t, tbl, want)
	})
}

// TestShallowReadsRunNoTransform pins the transform-free refresh: a
// refresh followed only by column-0 and Gaussian-extension reads starts
// no packed plan and allocates nothing, the first deeper read starts one,
// and Rebuild rejects an empty binned profile before committing it.
func TestShallowReadsRunNoTransform(t *testing.T) {
	const p, nbuckets, rows, maxQueue = 0.95, 128, 8, 16
	b, err := NewTableBuilder(p, nbuckets, rows, maxQueue)
	if err != nil {
		t.Fatal(err)
	}
	histC, histM := stats.NewHistogram(1024), stats.NewHistogram(1024)
	pushSamples(rand.New(rand.NewSource(11)), histC, histM, 1024, 1)
	var tbl *TailTable
	refresh := func() {
		tbl, _, err = b.Rebuild(histC, histM)
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < rows; r++ {
			tbl.Lookup(r, 0)
			tbl.Lookup(r, maxQueue+r)
		}
	}
	refresh()
	if !raceEnabled {
		if allocs := testing.AllocsPerRun(10, refresh); allocs != 0 {
			t.Fatalf("refresh plus shallow reads allocates %v/op, want 0", allocs)
		}
	}
	if b.plan != nil || len(b.packedPlans) != 0 {
		t.Fatalf("shallow reads started a packed plan (plan=%v, %d cached)", b.plan != nil, len(b.packedPlans))
	}
	want := eagerTable(t, p, nbuckets, rows, maxQueue, histC, histM)
	for r := 0; r < rows; r++ {
		lookupMatches(t, tbl, want, r, 0)
		lookupMatches(t, tbl, want, r, maxQueue+r)
	}
	lookupMatches(t, tbl, want, 0, 1)
	if b.plan == nil || len(b.packedPlans) != 1 {
		t.Fatalf("a column-1 read must start the packed plan (plan=%v, %d cached)", b.plan != nil, len(b.packedPlans))
	}

	// An empty binned profile is the one input Start would reject; Rebuild
	// must reject it before the bins or the plan change.
	distC, plan := b.distC, b.plan
	b.binM = stats.PMF{}
	if err := tbl.Rebuild(b, 0, 0, 0, 0); err == nil {
		t.Fatal("empty memory profile must fail the rebuild")
	}
	if &b.distC.P[0] != &distC.P[0] || b.plan != plan {
		t.Fatal("failed rebuild committed its bins or dropped the plan")
	}
	tablesBitwiseEqual(t, tbl, want)
}

// TestRowZeroDecisionConditionsOneRow pins the lazy rows: a refresh plus
// decisions whose head has done no work yet (row 0) conditions row 0 and
// no other, allocation-free, and the first decision that selects another
// row conditions exactly that row. The decided frequencies and the
// materialized rows equal the eager table's.
func TestRowZeroDecisionConditionsOneRow(t *testing.T) {
	cfg := DefaultConfig(1e6)
	ctl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	comp, mem := randomSamples(rand.New(rand.NewSource(17)), 1024)
	if err := ctl.Bootstrap(comp, mem); err != nil {
		t.Fatal(err)
	}
	queue := []queueing.QueuedRequest{{Arrival: 0}, {Arrival: 10_000}, {Arrival: 20_000}}
	tick := func() {
		ctl.OnTick(queueing.View{Now: 100_000, CurrentMHz: cpu.NominalMHz, Queue: queue})
		ctl.OnEvent(queueing.View{Now: 100_000, CurrentMHz: cpu.NominalMHz})
	}
	tick()
	if !raceEnabled {
		if allocs := testing.AllocsPerRun(10, tick); allocs != 0 {
			t.Fatalf("refresh plus row-0 decisions allocates %v/op, want 0", allocs)
		}
	}
	tbl := ctl.Table()
	if got := readyRows(tbl); len(got) != 1 || got[0] != 0 {
		t.Fatalf("refresh plus row-0 decisions conditioned rows %v, want [0]", got)
	}
	if tbl.built != len(queue) {
		t.Fatalf("decisions over %d requests materialized %d columns", len(queue), tbl.built)
	}
	want := sampleTable(t, comp, mem, cfg.TailPercentile, cfg.Buckets, cfg.OmegaRows, cfg.MaxTableQueue)
	last := cfg.OmegaRows - 1
	v := queueing.View{Now: 100_000, CurrentMHz: cpu.NominalMHz, Queue: queue,
		HeadElapsedCycles: want.rowBoundsC[last]}
	if row := tbl.RowFor(v.HeadElapsedCycles); row != last {
		t.Fatalf("elapsed %v selects row %d, want %d", v.HeadElapsedCycles, row, last)
	}
	got := ctl.OnEvent(v)
	if rows := readyRows(tbl); len(rows) != 2 || rows[0] != 0 || rows[1] != last {
		t.Fatalf("a row-%d decision left rows %v conditioned, want [0 %d]", last, rows, last)
	}
	eager := &Rubik{cfg: cfg, table: want, internalNs: ctl.internalNs}
	if wantMHz := eager.OnEvent(v); got != wantMHz {
		t.Fatalf("row-%d decision %d MHz, eager table %d MHz", last, got, wantMHz)
	}
	for _, row := range []int{0, last} {
		rowMatches(t, rand.New(rand.NewSource(int64(row))), tbl, want, row)
	}
	tablesBitwiseEqual(t, tbl, want)
}

// FuzzLazyTableLookupOrder drives one builder through fuzzed
// interleavings of profile growth, refreshes (rebuilds, cache hits,
// drift-gate skips, failed refreshes) and lookups in any order — single
// entries, whole rows read column by column in a random order, and one
// column read across every row in a random row order — and requires
// every lookup to match the eager oracle of the table's inputs bit for
// bit. Rows are therefore first read before, between and after their
// columns fill, and after hits and skips.
func FuzzLazyTableLookupOrder(f *testing.F) {
	f.Add(int64(1), []byte{2, 0x7c, 4, 0x10, 1, 2, 5, 1, 2, 0xfc})
	f.Add(int64(2), []byte{2, 3, 0xff, 8, 2, 0x44, 1, 2, 7, 3, 0x7f})
	f.Add(int64(7), []byte{0, 2, 4, 4, 4, 0x24, 2, 0xf4, 3, 0x7c})
	f.Add(int64(4), []byte{2, 0x7e, 0x15, 1, 2, 0x0d, 0, 2, 0x06, 1, 2, 0x3d, 3, 0x2e, 0x1c})
	f.Add(int64(6), []byte{2, 0x1e, 0, 0, 2, 0x25, 0x7c, 0x0e, 2, 0x45})
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		if len(ops) > 64 {
			ops = ops[:64]
		}
		r := rand.New(rand.NewSource(seed))
		nbuckets := 1 + r.Intn(130)
		rows := 1 + r.Intn(8)
		maxQueue := 1 + r.Intn(16)
		const p = 0.95
		b, err := NewTableBuilder(p, nbuckets, rows, maxQueue)
		if err != nil {
			t.Fatal(err)
		}
		if seed&1 == 0 {
			b.Cache = NewTableCache(2)
		}
		if seed&2 != 0 {
			b.DriftThreshold = 0.05
		}
		// Two profile windows at different scales, so switching between
		// them produces cache hits and drift-gate rebuilds.
		var histC, histM [2]*stats.Histogram
		for w := range histC {
			histC[w], histM[w] = stats.NewHistogram(256), stats.NewHistogram(256)
			pushSamples(r, histC[w], histM[w], 64, float64(1+w))
		}
		empty := stats.NewHistogram(16)
		w := 0
		var tbl, want *TailTable
		for _, op := range ops {
			arg := int(op >> 3)
			switch op & 7 {
			case 0:
				pushSamples(r, histC[w], histM[w], 1+arg, float64(1+w))
			case 1:
				w ^= 1
			case 2:
				got, rebuilt, err := b.Rebuild(histC[w], histM[w])
				if err != nil {
					t.Fatal(err)
				}
				tbl = got
				if rebuilt {
					want = eagerTable(t, p, nbuckets, rows, maxQueue, histC[w], histM[w])
				}
			case 3:
				if _, _, err := b.Rebuild(histC[w], empty); err == nil {
					t.Fatal("empty memory histogram must fail the refresh")
				}
			case 5:
				if tbl != nil {
					rowMatches(t, r, tbl, want, arg%rows)
				}
			case 6:
				if tbl != nil {
					for _, row := range r.Perm(rows) {
						lookupMatches(t, tbl, want, row, arg%(maxQueue+4))
					}
				}
			default:
				if tbl != nil {
					lookupMatches(t, tbl, want, r.Intn(rows+2)-1, arg%(maxQueue+4))
				}
			}
		}
		if tbl != nil {
			tablesBitwiseEqual(t, tbl, want)
		}
	})
}

// TestLookupClampsOutOfRange pins Lookup's clamps on a freshly built
// table, whose rows and deeper columns are still pending: a negative
// queue position reads position 0, and a row outside the table the
// nearest row.
func TestLookupClampsOutOfRange(t *testing.T) {
	const p, nbuckets, rows, maxQueue = 0.95, 64, 4, 8
	r := rand.New(rand.NewSource(21))
	histC, histM := stats.NewHistogram(512), stats.NewHistogram(512)
	pushSamples(r, histC, histM, 512, 1)
	want := eagerTable(t, p, nbuckets, rows, maxQueue, histC, histM)
	for _, c := range []struct{ row, i, wantRow, wantI int }{
		{0, -1, 0, 0},
		{2, -7, 2, 0},
		{-3, -1, 0, 0},
		{rows + 5, -1, rows - 1, 0},
		{-1, 5, 0, 5},
		{rows, maxQueue + 3, rows - 1, maxQueue + 3},
	} {
		b, err := NewTableBuilder(p, nbuckets, rows, maxQueue)
		if err != nil {
			t.Fatal(err)
		}
		tbl, _, err := b.Rebuild(histC, histM)
		if err != nil {
			t.Fatal(err)
		}
		gc, gm := tbl.Lookup(c.row, c.i)
		wc, wm := want.Lookup(c.wantRow, c.wantI)
		if math.Float64bits(gc) != math.Float64bits(wc) || math.Float64bits(gm) != math.Float64bits(wm) {
			t.Fatalf("Lookup(%d, %d) = (%v, %v), want Lookup(%d, %d) = (%v, %v)",
				c.row, c.i, gc, gm, c.wantRow, c.wantI, wc, wm)
		}
	}
}
