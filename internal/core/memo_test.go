package core

import (
	"math"
	"math/rand"
	"testing"

	"rubik/internal/stats"
)

// memoReused reports whether b's last refresh read histC and histM at
// their current counts, the state in which the next refresh of that pair
// reuses the memo instead of binning.
func memoReused(b *TableBuilder, histC, histM *stats.Histogram) bool {
	m := b.memo
	return m.histC == histC && m.histM == histM &&
		m.pushesC == histC.Pushes() && m.pushesM == histM.Pushes()
}

// TestBuilderRefreshMemoMatchesFreshBuilder drives one builder through
// refreshes of two histogram pairs whose push counts are equal at every
// refresh, with single pushes (and rejected ones) between refreshes, and
// requires each refreshed table to equal a fresh builder's table from
// the same windows bit for bit, reading every row and column. Refreshing
// an unchanged pair reuses the memo; switching pairs at an equal count
// must bin again. It runs without a cache, with one, after a drift-gate
// skip whose bins were never committed, and across a cache swap, whose
// fingerprint the memo must not carry over.
func TestBuilderRefreshMemoMatchesFreshBuilder(t *testing.T) {
	const p, nbuckets, rows, maxQueue = 0.95, 128, 8, 16
	for _, cached := range []bool{false, true} {
		name := "uncached"
		if cached {
			name = "cached"
		}
		t.Run(name, func(t *testing.T) {
			r := rand.New(rand.NewSource(23))
			b, err := NewTableBuilder(p, nbuckets, rows, maxQueue)
			if err != nil {
				t.Fatal(err)
			}
			if cached {
				b.Cache = NewTableCache(4)
			}
			var histC, histM [2]*stats.Histogram
			for w := range histC {
				histC[w], histM[w] = stats.NewHistogram(512), stats.NewHistogram(512)
				pushSamples(r, histC[w], histM[w], 300, float64(1+w))
			}
			refresh := func(w int, wantMemo bool) {
				t.Helper()
				if got := memoReused(b, histC[w], histM[w]); got != wantMemo {
					t.Fatalf("pair %d: memo reusable = %v before refresh, want %v", w, got, wantMemo)
				}
				tbl, rebuilt, err := b.Rebuild(histC[w], histM[w])
				if err != nil {
					t.Fatal(err)
				}
				if !rebuilt {
					t.Fatalf("pair %d: ungated refresh kept the old table", w)
				}
				want := eagerTable(t, p, nbuckets, rows, maxQueue, histC[w], histM[w])
				// A partial read first, so the next refresh replaces a
				// table with some columns and rows still pending.
				lookupMatches(t, tbl, want, r.Intn(rows), r.Intn(maxQueue))
				if r.Intn(2) == 0 {
					tablesBitwiseEqual(t, tbl, want)
				}
			}
			refresh(0, false)
			refresh(0, true)
			refresh(1, false) // equal counts, other pair: bins again
			refresh(1, true)
			refresh(0, false) // a cache hit when cached
			for step := 0; step < 12; step++ {
				w := 1 - step&1 // the other pair than the last refresh's
				if histC[0].Pushes() != histC[1].Pushes() {
					t.Fatalf("step %d: pair counts diverged", step)
				}
				refresh(w, false)
				refresh(w, true)
				histC[w].Push(math.NaN()) // rejected: the window is unchanged
				histM[w].Push(math.Inf(1))
				refresh(w, true)
				if step%3 == 2 { // one pair moves, then the other catches up
					pushSamples(r, histC[w], histM[w], 1, float64(1+w))
					refresh(w, false)
					pushSamples(r, histC[w^1], histM[w^1], 1, float64(2-w))
				}
			}
			if cached && b.CacheHits() == 0 {
				t.Fatal("cached refreshes never hit")
			}
		})
	}

	t.Run("uncommitted bins after a drift-gate skip", func(t *testing.T) {
		r := rand.New(rand.NewSource(29))
		b, err := NewTableBuilder(p, nbuckets, rows, maxQueue)
		if err != nil {
			t.Fatal(err)
		}
		b.DriftThreshold = 0.5
		histC, histM := stats.NewHistogram(1024), stats.NewHistogram(1024)
		pushSamples(r, histC, histM, 1024, 1)
		if _, _, err := b.Rebuild(histC, histM); err != nil {
			t.Fatal(err)
		}
		pushSamples(r, histC, histM, 32, 1)
		for k := 0; k < 2; k++ { // a fresh binning, then the memo, both skipped
			if _, rebuilt, err := b.Rebuild(histC, histM); err != nil || rebuilt {
				t.Fatalf("refresh %d: rebuilt=%v err=%v, want a skip", k, rebuilt, err)
			}
		}
		b.DriftThreshold = 0 // the memo's bins, still uncommitted, now rebuild
		if !memoReused(b, histC, histM) || b.memo.committed {
			t.Fatal("skipped refreshes left no uncommitted memo")
		}
		tbl, rebuilt, err := b.Rebuild(histC, histM)
		if err != nil || !rebuilt {
			t.Fatalf("ungated refresh: rebuilt=%v err=%v", rebuilt, err)
		}
		tablesBitwiseEqual(t, tbl, eagerTable(t, p, nbuckets, rows, maxQueue, histC, histM))
	})

	t.Run("cache swap recomputes the fingerprint", func(t *testing.T) {
		r := rand.New(rand.NewSource(31))
		b, err := NewTableBuilder(p, nbuckets, rows, maxQueue)
		if err != nil {
			t.Fatal(err)
		}
		plain, colliding := NewTableCache(4), NewTableCache(4)
		colliding.fingerprint = func(*tableKey) uint64 { return 0xdead }
		histC, histM := stats.NewHistogram(512), stats.NewHistogram(512)
		pushSamples(r, histC, histM, 512, 1)
		b.Cache = plain
		if _, _, err := b.Rebuild(histC, histM); err != nil {
			t.Fatal(err)
		}
		b.Cache = colliding
		tbl, _, err := b.Rebuild(histC, histM)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := colliding.entries[0xdead]; !ok || colliding.Len() != 1 {
			t.Fatalf("swapped-in cache stored %d entries, not under its own fingerprint", colliding.Len())
		}
		tablesBitwiseEqual(t, tbl, eagerTable(t, p, nbuckets, rows, maxQueue, histC, histM))
	})
}

// TestBuilderRefreshBothPathsAllocationFree pins both refresh paths at
// zero steady-state allocations: alternating two pairs bins and
// fingerprints every refresh, and refreshing one unchanged pair reuses
// the memo.
func TestBuilderRefreshBothPathsAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	r := rand.New(rand.NewSource(37))
	b, err := NewTableBuilder(0.95, 128, 8, 16)
	if err != nil {
		t.Fatal(err)
	}
	b.Cache = NewTableCache(4)
	var histC, histM [2]*stats.Histogram
	for w := range histC {
		histC[w], histM[w] = stats.NewHistogram(2048), stats.NewHistogram(2048)
		pushSamples(r, histC[w], histM[w], 2048, float64(1+w))
	}
	refresh := func(w int) {
		tbl, _, err := b.Rebuild(histC[w], histM[w])
		if err != nil {
			t.Fatal(err)
		}
		tbl.Lookup(0, 3)
	}
	refresh(0)
	refresh(1)
	if allocs := testing.AllocsPerRun(5, func() { refresh(0); refresh(1) }); allocs != 0 {
		t.Fatalf("alternating refreshes allocate %v/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(5, func() { refresh(1) }); allocs != 0 {
		t.Fatalf("unchanged refreshes allocate %v/op, want 0", allocs)
	}
}

// FuzzBuilderRefreshMemo drives one builder through fuzzed push
// sequences over two histogram pairs (accepted samples, single-sided
// pushes, degenerate constant samples and rejected NaN and ±Inf ones),
// pair switches, cache attach and detach, failed refreshes and
// refreshes, and requires every refreshed table to equal a fresh
// builder's table from the same windows bit for bit. The windows are
// small, so they wrap and evict, and both pairs start at one push count,
// so a memo keyed on counts alone would serve the wrong pair.
func FuzzBuilderRefreshMemo(f *testing.F) {
	f.Add(int64(1), []byte{5, 5, 3, 5, 5, 0x08, 5, 2, 5, 4, 5, 3, 5})
	f.Add(int64(2), []byte{4, 5, 3, 5, 3, 5, 1, 5, 3, 1, 5, 6, 0x1e, 5})
	f.Add(int64(3), []byte{5, 0x0a, 5, 0x12, 5, 3, 7, 5, 4, 6, 6, 0x20, 5})
	f.Add(int64(4), []byte{4, 5, 6, 5, 0x31, 5, 3, 5, 3, 5, 2, 2, 5, 0x09, 5})
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
		cache := NewTableCache(1 + r.Intn(3))
		var histC, histM [2]*stats.Histogram
		for w := range histC {
			histC[w], histM[w] = stats.NewHistogram(48), stats.NewHistogram(48)
			pushSamples(r, histC[w], histM[w], 16, float64(1+w))
		}
		rejected := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
		empty := stats.NewHistogram(8)
		w := 0
		var tbl, want *TailTable
		for _, op := range ops {
			arg := int(op >> 3)
			switch op & 7 {
			case 0:
				pushSamples(r, histC[w], histM[w], 1+arg%4, float64(1+w))
			case 1:
				histC[w].Push(float64(1+w) * 1e5) // degenerate once it fills the window
				if arg&1 == 0 {
					histM[w].Push(2e4)
				}
			case 2:
				histC[w].Push(rejected[arg%3])
				histM[w].Push(rejected[(arg+1)%3])
			case 3:
				w ^= 1
			case 4:
				if b.Cache == nil {
					b.Cache = cache
				} else {
					b.Cache = nil
				}
			case 5:
				got, rebuilt, err := b.Rebuild(histC[w], histM[w])
				if err != nil || !rebuilt {
					t.Fatalf("refresh: rebuilt=%v err=%v", rebuilt, err)
				}
				tbl = got
				want = eagerTable(t, p, nbuckets, rows, maxQueue, histC[w], histM[w])
				if arg&1 == 0 {
					tablesBitwiseEqual(t, tbl, want)
				}
			case 6:
				if _, _, err := b.Rebuild(histC[w], empty); err == nil {
					t.Fatal("empty memory histogram must fail the refresh")
				}
			default:
				if tbl != nil {
					lookupMatches(t, tbl, want, r.Intn(rows), arg%(maxQueue+4))
				}
			}
		}
		if tbl != nil {
			tablesBitwiseEqual(t, tbl, want)
		}
	})
}
