package core

import (
	"math"
	"math/rand"
	"testing"

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

// TestLazyColumnsMatchEager pins lazily materialized columns to a fully
// materialized table from a fresh builder, bit for bit, on every path
// that can leave a column pending: random lookup orders, a cache hit
// (whose deep columns rerun the forward transform), a drift-gate skip
// and a failed refresh (neither may touch the pending columns' inputs).
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
				// The Gaussian extension first: it reads column 0 only.
				lookupMatches(t, tbl, want, r.Intn(rows), maxQueue+r.Intn(8))
				if tbl.built != 1 {
					t.Fatalf("extension lookup materialized %d columns, want 1", tbl.built)
				}
				for k := 0; k < 40; k++ {
					lookupMatches(t, tbl, want, r.Intn(rows+2)-1, r.Intn(maxQueue+4))
				}
				tablesBitwiseEqual(t, tbl, want)
			}
		}
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
		if b.CacheHits() != 1 || tbl.built != 1 {
			t.Fatalf("hit: hits=%d built=%d, want 1 and 1", b.CacheHits(), tbl.built)
		}
		lookupMatches(t, tbl, want1, rows-1, maxQueue-1)
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
		lookupMatches(t, tbl2, want2, 1, maxQueue-1)
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
		pushSamples(r, histC, histM, 64, 1)
		if _, rebuilt, err := b.Rebuild(histC, histM); err != nil || rebuilt {
			t.Fatalf("still profile must be skipped (rebuilt=%v err=%v)", rebuilt, err)
		}
		lookupMatches(t, tbl, want, 0, maxQueue-1)
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

// FuzzLazyTableLookupOrder drives one builder through fuzzed
// interleavings of profile growth, refreshes (rebuilds, cache hits,
// drift-gate skips, failed refreshes) and lookups in any order, and
// requires every lookup to match the eager oracle of the table's inputs
// bit for bit.
func FuzzLazyTableLookupOrder(f *testing.F) {
	f.Add(int64(1), []byte{2, 0x7c, 4, 0x10, 1, 2, 5, 1, 2, 0xfc})
	f.Add(int64(2), []byte{2, 3, 0xff, 8, 2, 0x44, 1, 2, 7, 3, 0x7f})
	f.Add(int64(7), []byte{0, 2, 4, 4, 4, 0x24, 2, 0xf4, 3, 0x7c})
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
