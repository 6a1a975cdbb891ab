package core

import (
	"math"

	"rubik/internal/stats"
)

// TableCache is a bounded, content-addressed memo of tail-table rebuilds.
//
// TailTable.Rebuild is a pure function of its inputs — the two profiled
// PMFs plus the (percentile, buckets, rows, maxQueue) table shape. A
// refresh runs no transform (column 0 comes straight from the profiles);
// what it does run is the per-row work (row bounds, conditioned head
// distributions, mean discounts) every core's periodic refresh repeats
// even when its profile is byte-identical to the previous tick's (an
// idle burst phase adds no samples) or to a neighboring core's. The cache
// saves that row work and nothing else: deeper columns of a hit table
// still run the forward transform on first read. The cache keys each
// rebuild by an FNV-1a fingerprint over the raw float bits of that exact
// input tuple; on a fingerprint hit it verifies the full key bit for bit
// (FNV-1a can collide; a false share would corrupt results, so collisions
// fall back to a full rebuild), then copies the cached table into the
// builder's table in place. Because the pipeline is bit-deterministic,
// a verified hit is bitwise-indistinguishable from rebuilding — cached
// and uncached runs produce DeepEqual results, which the cluster
// property tests and the pre-cache goldens pin.
//
// The cache is a plain bounded LRU with no locks: it is shard-confined by
// construction. Each fleet shard goroutine owns one cache and hands it to
// every socket it simulates (cluster.RunFleet), so entries are shared
// across all cores and sockets that run on that goroutine while the cache
// never synchronizes. Evicted entries are recycled, so a warm cache
// inserts without steady-state allocations. A TableCache must not be
// shared across goroutines.
type TableCache struct {
	capacity   int
	entries    map[uint64]*cacheEntry
	head, tail *cacheEntry // LRU list, most recent at head
	stats      TableCacheStats

	// fingerprint computes an entry's hash; tests override it to force
	// fingerprint collisions and exercise the full-key fallback.
	fingerprint func(*tableKey) uint64
}

// TableCacheStats counts rebuild-cache outcomes. Hit/miss/collision tally
// lookups; Evictions counts entries displaced by the LRU bound. In fleet
// runs the per-shard stats are summed into FleetResult.TableCache — note
// that with work stealing the socket→shard assignment is timing-
// dependent, so aggregate stats may vary between runs even though every
// socket's simulation result is identical.
type TableCacheStats struct {
	// Hits is the number of lookups whose fingerprint and full key both
	// matched: rebuilds answered by copying a cached table.
	Hits int64
	// Misses is the number of lookups with no entry at the fingerprint.
	Misses int64
	// Collisions is the number of lookups that found an entry at the
	// fingerprint whose full key mismatched — a genuine FNV-1a collision
	// (or a replaced slot), handled as a miss.
	Collisions int64
	// Evictions counts entries displaced by the capacity bound.
	Evictions int64
}

// Lookups returns the total number of cache probes.
func (s TableCacheStats) Lookups() int64 { return s.Hits + s.Misses + s.Collisions }

// HitRate returns Hits over Lookups (0 when the cache was never probed).
func (s TableCacheStats) HitRate() float64 {
	if n := s.Lookups(); n > 0 {
		return float64(s.Hits) / float64(n)
	}
	return 0
}

// Add accumulates o into s (summing per-shard stats fleet-wide).
func (s *TableCacheStats) Add(o TableCacheStats) {
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Collisions += o.Collisions
	s.Evictions += o.Evictions
}

// tableKey is the exact input tuple TailTable.Rebuild is a pure function
// of. The DVFS frequency grid is deliberately absent: tables hold tail
// work (cycles and nanoseconds), and frequency only enters when Eq. 2
// divides by f at decision time, so grid-differing controllers can share
// tables built from identical profiles. Cached keys own copies of the
// PMF buckets; probe keys alias the builder's buffers.
type tableKey struct {
	percentile               float64
	nbuckets, rows, maxQueue int
	distC, distM             stats.PMF
}

// fingerprintKey hashes the key's raw bits with FNV-1a.
func fingerprintKey(k *tableKey) uint64 {
	return stats.NewHash64().
		Float64(k.percentile).
		Int(k.nbuckets).Int(k.rows).Int(k.maxQueue).
		Float64(k.distC.Origin).Float64(k.distC.Width).Float64s(k.distC.P).
		Float64(k.distM.Origin).Float64(k.distM.Width).Float64s(k.distM.P).
		Sum()
}

// matches reports whether k and probe are bit-for-bit identical — the
// full-key verification that rules fingerprint collisions out.
func (k *tableKey) matches(probe *tableKey) bool {
	return math.Float64bits(k.percentile) == math.Float64bits(probe.percentile) &&
		k.nbuckets == probe.nbuckets && k.rows == probe.rows && k.maxQueue == probe.maxQueue &&
		pmfBitsEqual(k.distC, probe.distC) && pmfBitsEqual(k.distM, probe.distM)
}

// pmfBitsEqual compares two PMFs by raw bits (so -0 != +0, matching the
// fingerprint's view of equality).
func pmfBitsEqual(a, b stats.PMF) bool {
	if len(a.P) != len(b.P) ||
		math.Float64bits(a.Origin) != math.Float64bits(b.Origin) ||
		math.Float64bits(a.Width) != math.Float64bits(b.Width) {
		return false
	}
	for i := range a.P {
		if math.Float64bits(a.P[i]) != math.Float64bits(b.P[i]) {
			return false
		}
	}
	return true
}

// storeKey deep-copies probe into the entry's key, reusing its buffers.
func (k *tableKey) storeKey(probe *tableKey) {
	k.percentile = probe.percentile
	k.nbuckets, k.rows, k.maxQueue = probe.nbuckets, probe.rows, probe.maxQueue
	k.distC.Origin, k.distC.Width = probe.distC.Origin, probe.distC.Width
	k.distC.P = resizeCopy(k.distC.P, probe.distC.P)
	k.distM.Origin, k.distM.Width = probe.distM.Origin, probe.distM.Width
	k.distM.P = resizeCopy(k.distM.P, probe.distM.P)
}

// cacheEntry is one cached rebuild: the verified key plus a snapshot of
// the rebuilt table, linked into the LRU list.
type cacheEntry struct {
	fp    uint64
	key   tableKey
	table TailTable

	prev, next *cacheEntry
}

// NewTableCache returns a shard-confined rebuild cache bounded at the
// given entry count (at least 1). One cache per goroutine: it does not
// synchronize.
func NewTableCache(entries int) *TableCache {
	if entries < 1 {
		entries = 1
	}
	return &TableCache{
		capacity:    entries,
		entries:     make(map[uint64]*cacheEntry, entries),
		fingerprint: fingerprintKey,
	}
}

// Stats returns the cache's outcome counters so far.
func (c *TableCache) Stats() TableCacheStats { return c.stats }

// Len returns the number of cached rebuilds.
func (c *TableCache) Len() int { return len(c.entries) }

// Cap returns the entry bound.
func (c *TableCache) Cap() int { return c.capacity }

// lookup probes the cache: it returns the cached table for a key that
// matches probe bit for bit, or nil on a miss or fingerprint collision.
// A hit refreshes the entry's LRU position.
func (c *TableCache) lookup(fp uint64, probe *tableKey) *TailTable {
	e, ok := c.entries[fp]
	if !ok {
		c.stats.Misses++
		return nil
	}
	if !e.key.matches(probe) {
		c.stats.Collisions++
		return nil
	}
	c.stats.Hits++
	c.moveToFront(e)
	return &e.table
}

// insert caches a freshly rebuilt table under the probe key, evicting
// (and recycling) the least-recently-used entry at capacity. An existing
// entry at the same fingerprint — a collision whose rebuild just
// completed — is overwritten in place: the single-slot-per-fingerprint
// policy keeps colliding keys from evicting unrelated entries.
func (c *TableCache) insert(fp uint64, probe *tableKey, t *TailTable) {
	if e, ok := c.entries[fp]; ok {
		e.key.storeKey(probe)
		e.table.copyFrom(t)
		c.moveToFront(e)
		return
	}
	var e *cacheEntry
	if len(c.entries) >= c.capacity {
		e = c.tail
		c.unlink(e)
		delete(c.entries, e.fp)
		c.stats.Evictions++
	} else {
		e = &cacheEntry{}
	}
	e.fp = fp
	e.key.storeKey(probe)
	e.table.copyFrom(t)
	c.entries[fp] = e
	c.pushFront(e)
}

func (c *TableCache) pushFront(e *cacheEntry) {
	e.prev = nil
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

func (c *TableCache) unlink(e *cacheEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (c *TableCache) moveToFront(e *cacheEntry) {
	if c.head == e {
		return
	}
	c.unlink(e)
	c.pushFront(e)
}

// copyFrom makes t a deep copy of src's materialized state — everything
// the rows share plus columns 0..src.built-1 — reusing t's backing slices
// when their capacities allow. It leaves t.src alone: a cache entry stays
// ownerless, and a builder's table keeps deriving its pending columns
// from its builder. On the hit path the builder's table already has the
// key's exact dimensions, so the copy allocates nothing; recycled cache
// entries resize when a differently-shaped builder shares the cache.
func (t *TailTable) copyFrom(src *TailTable) {
	t.Percentile = src.Percentile
	t.MaxQueue = src.MaxQueue
	t.meanC, t.varC = src.meanC, src.varC
	t.meanM, t.varM = src.meanM, src.varM
	t.rowBoundsC = resizeCopy(t.rowBoundsC, src.rowBoundsC)
	t.rowBoundsM = resizeCopy(t.rowBoundsM, src.rowBoundsM)
	t.discC = resizeCopy(t.discC, src.discC)
	t.discM = resizeCopy(t.discM, src.discM)
	t.headC = resizeCopy(t.headC, src.headC)
	t.headM = resizeCopy(t.headM, src.headM)
	t.built = src.built
	t.c = resizeCopyRows(t.c, src.c, src.built)
	t.m = resizeCopyRows(t.m, src.m, src.built)
}

// resizeCopy copies src into dst's backing array, growing only when the
// capacity falls short.
func resizeCopy(dst, src []float64) []float64 {
	if cap(dst) < len(src) {
		dst = make([]float64, len(src))
	} else {
		dst = dst[:len(src)]
	}
	copy(dst, src)
	return dst
}

// resizeCopyRows shapes dst like the row matrix src, reusing both the row
// slice and each row's backing array where capacities allow, and copies
// the first n columns of every row.
func resizeCopyRows(dst, src [][]float64, n int) [][]float64 {
	if cap(dst) < len(src) {
		grown := make([][]float64, len(src))
		copy(grown, dst[:cap(dst)])
		dst = grown
	} else {
		dst = dst[:len(src)]
	}
	for i, row := range src {
		if cap(dst[i]) < len(row) {
			dst[i] = make([]float64, len(row))
		} else {
			dst[i] = dst[i][:len(row)]
		}
		copy(dst[i], row[:n])
	}
	return dst
}
