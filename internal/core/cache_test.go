package core

import (
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"rubik/internal/stats"
)

// TestCachedRebuildBitwiseEqual is the cache's core property: across
// random table shapes and sliding profile windows — including degenerate
// all-equal windows that collapse to single-bucket PMFs — a builder with
// a cache attached produces tables bit-identical to an uncached builder
// fed the same histograms, whether a given refresh hit or missed.
func TestCachedRebuildBitwiseEqual(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nbuckets := 1 + r.Intn(130)
		rows := 1 + r.Intn(8)
		maxQueue := 1 + r.Intn(16)
		percentile := 0.9 + 0.09*r.Float64()
		capacity := 64 + r.Intn(256)

		cached, err := NewTableBuilder(percentile, nbuckets, rows, maxQueue)
		if err != nil {
			t.Fatal(err)
		}
		cached.Cache = NewTableCache(4)
		plain, err := NewTableBuilder(percentile, nbuckets, rows, maxQueue)
		if err != nil {
			t.Fatal(err)
		}
		histC := stats.NewHistogram(capacity)
		histM := stats.NewHistogram(capacity)
		for round := 0; round < 5; round++ {
			switch round % 3 {
			case 0, 1:
				comp, mem := randomSamples(r, 32+r.Intn(200))
				for i := range comp {
					histC.Push(comp[i])
					histM.Push(mem[i])
				}
			case 2:
				// Unchanged window: the cached builder must hit here and
				// still match bit for bit.
			}
			got, _, err := cached.Rebuild(histC, histM)
			if err != nil {
				t.Fatal(err)
			}
			want, _, err := plain.Rebuild(histC, histM)
			if err != nil {
				t.Fatal(err)
			}
			tablesBitwiseEqual(t, got, want)
		}
		if cached.CacheHits() == 0 {
			t.Fatal("repeated identical windows never hit the cache")
		}
		if plain.CacheHits() != 0 {
			t.Fatal("uncached builder reported cache hits")
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestCacheDegenerateProfile covers the single-bucket PMF corner: all-
// equal samples, cached, must still match the uncached build bitwise and
// hit on the second refresh.
func TestCacheDegenerateProfile(t *testing.T) {
	b, err := NewTableBuilder(0.95, 128, 8, 16)
	if err != nil {
		t.Fatal(err)
	}
	b.Cache = NewTableCache(2)
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
	tablesBitwiseEqual(t, got, want)
	if got, _, err = b.Rebuild(histC, histM); err != nil {
		t.Fatal(err)
	}
	tablesBitwiseEqual(t, got, want)
	if b.CacheHits() != 1 {
		t.Fatalf("second identical refresh: hits=%d, want 1", b.CacheHits())
	}
}

// TestCacheSharedAcrossBuilders checks the fleet-shard sharing pattern:
// two builders (two cores' controllers) handed one cache, profiling
// identical windows, and the second builder's first refresh is answered
// by the first builder's rebuild.
func TestCacheSharedAcrossBuilders(t *testing.T) {
	cache := NewTableCache(8)
	r := rand.New(rand.NewSource(21))
	comp, mem := randomSamples(r, 512)

	build := func() (*TableBuilder, *TailTable) {
		b, err := NewTableBuilder(0.95, 128, 8, 16)
		if err != nil {
			t.Fatal(err)
		}
		b.Cache = cache
		histC, histM := stats.NewHistogram(1024), stats.NewHistogram(1024)
		for i := range comp {
			histC.Push(comp[i])
			histM.Push(mem[i])
		}
		tbl, _, err := b.Rebuild(histC, histM)
		if err != nil {
			t.Fatal(err)
		}
		return b, tbl
	}

	b1, t1 := build()
	b2, t2 := build()
	if b1.Builds() != 1 || b1.CacheHits() != 0 {
		t.Fatalf("first builder: builds=%d hits=%d", b1.Builds(), b1.CacheHits())
	}
	if b2.Builds() != 0 || b2.CacheHits() != 1 {
		t.Fatalf("second builder must hit: builds=%d hits=%d", b2.Builds(), b2.CacheHits())
	}
	tablesBitwiseEqual(t, t2, t1)
	st := cache.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Collisions != 0 {
		t.Fatalf("stats %+v", st)
	}
}

// TestCacheCollisionFallsBack forces every key onto one fingerprint and
// checks the full-key verification: distinct profiles must not share a
// table, collisions are counted, and results stay bitwise-correct.
func TestCacheCollisionFallsBack(t *testing.T) {
	cache := NewTableCache(8)
	cache.fingerprint = func(*tableKey) uint64 { return 0xdead } // collide everything

	run := func(seed int64) (*TableBuilder, *TailTable, *TailTable) {
		b, err := NewTableBuilder(0.95, 64, 4, 8)
		if err != nil {
			t.Fatal(err)
		}
		b.Cache = cache
		plain, err := NewTableBuilder(0.95, 64, 4, 8)
		if err != nil {
			t.Fatal(err)
		}
		r := rand.New(rand.NewSource(seed))
		comp, mem := randomSamples(r, 256)
		histC, histM := stats.NewHistogram(512), stats.NewHistogram(512)
		for i := range comp {
			histC.Push(comp[i])
			histM.Push(mem[i])
		}
		tbl, _, err := b.Rebuild(histC, histM)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := plain.Rebuild(histC, histM)
		if err != nil {
			t.Fatal(err)
		}
		return b, tbl, want
	}

	// Seed 1 populates the colliding slot; seed 2's different profile
	// lands on the same fingerprint and must be detected as a collision.
	b1, t1, w1 := run(1)
	tablesBitwiseEqual(t, t1, w1)
	if b1.Builds() != 1 || b1.CacheHits() != 0 {
		t.Fatalf("first: builds=%d hits=%d", b1.Builds(), b1.CacheHits())
	}
	b2, t2, w2 := run(2)
	tablesBitwiseEqual(t, t2, w2)
	if b2.Builds() != 1 || b2.CacheHits() != 0 {
		t.Fatalf("collision must rebuild: builds=%d hits=%d", b2.Builds(), b2.CacheHits())
	}
	st := cache.Stats()
	if st.Collisions != 1 {
		t.Fatalf("collisions=%d, want 1 (stats %+v)", st.Collisions, st)
	}
	if cache.Len() != 1 {
		t.Fatalf("single-slot-per-fingerprint violated: len=%d", cache.Len())
	}
	// The slot now holds seed 2's rebuild; replaying seed 2 must hit.
	b3, t3, w3 := run(2)
	tablesBitwiseEqual(t, t3, w3)
	if b3.CacheHits() != 1 {
		t.Fatalf("replay must hit: builds=%d hits=%d", b3.Builds(), b3.CacheHits())
	}
}

// TestCacheEvictionBoundsMemory drives many distinct profiles through a
// small cache: Len stays at the bound, evictions are counted, and —
// because evicted entries are recycled — the steady churn does not grow
// the heap.
func TestCacheEvictionBoundsMemory(t *testing.T) {
	const capEntries = 4
	cache := NewTableCache(capEntries)
	b, err := NewTableBuilder(0.95, 64, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	b.Cache = cache
	histC, histM := stats.NewHistogram(256), stats.NewHistogram(256)
	r := rand.New(rand.NewSource(33))
	refresh := func() {
		comp, mem := randomSamples(r, 64)
		for i := range comp {
			histC.Push(comp[i])
			histM.Push(mem[i])
		}
		if _, _, err := b.Rebuild(histC, histM); err != nil {
			t.Fatal(err)
		}
	}
	// Warm past the bound so the recycled-entry path is active.
	for i := 0; i < 2*capEntries; i++ {
		refresh()
	}
	if cache.Len() != capEntries {
		t.Fatalf("len=%d, want the bound %d", cache.Len(), capEntries)
	}
	if ev := cache.Stats().Evictions; ev != int64(capEntries) {
		t.Fatalf("evictions=%d, want %d", ev, capEntries)
	}

	if raceEnabled {
		t.Skip("alloc guard needs an uninstrumented build")
	}
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	const churn = 200
	for i := 0; i < churn; i++ {
		refresh()
	}
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	if cache.Len() != capEntries {
		t.Fatalf("len=%d after churn, want %d", cache.Len(), capEntries)
	}
	// Every refresh is a distinct-profile miss: a cache that allocated a
	// fresh entry per insert would grow by entries*tables; recycled
	// entries keep the churn's footprint in the noise.
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("churn of %d evicting inserts allocated %d bytes", churn, grew)
	}
}

// TestCacheHitAllocationFree pins the hit path's cost: with the window
// unchanged, a cached refresh (fingerprint + verify + copy) and the lazy
// fill of every deeper column perform zero steady-state allocations, like
// the rebuild path they replace.
func TestCacheHitAllocationFree(t *testing.T) {
	b, err := NewTableBuilder(0.95, 128, 8, 16)
	if err != nil {
		t.Fatal(err)
	}
	b.Cache = NewTableCache(4)
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
		// A hit copies column 0 only; reading column 15 reruns the
		// forward transform and every inverse.
		tbl.Lookup(0, 15)
	}
	refresh() // populate
	allocs := testing.AllocsPerRun(5, refresh)
	if allocs != 0 {
		t.Fatalf("cache-hit Rebuild plus full lazy fill allocates %v/op, want 0", allocs)
	}
	if b.CacheHits() == 0 {
		t.Fatal("refreshes never hit")
	}
}

// TestCacheStatsArithmetic covers the aggregate helpers fleet reporting
// relies on.
func TestCacheStatsArithmetic(t *testing.T) {
	var s TableCacheStats
	if s.Lookups() != 0 || s.HitRate() != 0 {
		t.Fatalf("zero stats: lookups=%d rate=%v", s.Lookups(), s.HitRate())
	}
	s.Add(TableCacheStats{Hits: 3, Misses: 1, Collisions: 1, Evictions: 2})
	s.Add(TableCacheStats{Hits: 1, Misses: 2})
	if s.Lookups() != 8 {
		t.Fatalf("lookups=%d, want 8", s.Lookups())
	}
	if got, want := s.HitRate(), 0.5; got != want {
		t.Fatalf("hit rate %v, want %v", got, want)
	}
	if s.Evictions != 2 {
		t.Fatalf("evictions=%d", s.Evictions)
	}
}
