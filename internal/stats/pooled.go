package stats

import "math"

// radixBits is the digit width of PooledPercentile's counting passes.
// A positive float's sign and exponent fill the top 12 bits of its key,
// so the first 16-bit digit already splits every octave 16 ways: on a
// latency pool the rank's bucket is then small enough to gather, and a
// call makes one counting pass and one gathering pass. Each pass reads
// every record, which costs far more than clearing the 2^16 counters.
const radixBits = 16

// gatherLimit is the bucket size at which PooledPercentile stops
// counting digits and gathers the bucket to select within it: the
// gathered floats take no more memory than the counters. A pool no
// larger is gathered whole.
const gatherLimit = 1 << 15

// PooledPercentile returns the nearest-rank q-quantile of the pool formed
// by value(&x) for every x of every part, in the order given, without
// building that pool: PercentileInPlace's result, bit for bit, up to the
// sign of a zero (see there; here -0 ranks just below +0). An empty pool
// returns 0, a NaN q NaN, and NaN samples rank below everything.
//
// The pool is never copied. Each pass counts one radixBits-wide digit of
// the samples' order-preserving bit patterns, among the samples whose
// higher digits match the rank's, and so narrows the rank to one bucket;
// once the bucket holds at most gatherLimit samples, one more pass
// gathers it and the rank is selected within it. A call allocates the
// counters and that bucket. Pools of at most gatherLimit samples are
// gathered whole. Counts are 32-bit: a pool holds fewer than 2^32
// samples.
func PooledPercentile[T any](parts [][]T, value func(*T) float64, q float64) float64 {
	return pooledPercentile(parts, value, q, gatherLimit)
}

// pooledPercentile is PooledPercentile with the gather limit as an
// argument, so tests can drive the digit passes on small pools.
func pooledPercentile[T any](parts [][]T, value func(*T) float64, q float64, limit int) float64 {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	if n == 0 {
		return 0
	}
	if n <= limit {
		pool := make([]float64, 0, n)
		for _, p := range parts {
			for i := range p {
				pool = append(pool, value(&p[i]))
			}
		}
		return PercentileInPlace(pool, q)
	}
	rank := NearestRank(n, q)
	if rank < 0 {
		return math.NaN()
	}
	// want holds the digits chosen so far, above bit shift; a sample is
	// in the bucket when its key agrees with want there.
	cnt := make([]uint32, 1<<radixBits)
	var want uint64
	shift, size := 64, n
	for first := true; size > limit; first = false {
		if shift == 0 {
			// Every bit is fixed: the bucket holds one value.
			return fromOrderedKey(want)
		}
		hi := shift // keys must match want above bit hi
		shift -= radixBits
		clear(cnt)
		nans := 0
		for _, p := range parts {
			for i := range p {
				v := value(&p[i])
				if v != v {
					nans++
					continue
				}
				if k := orderedKey(v); (k^want)>>hi == 0 {
					cnt[(k>>shift)&(1<<radixBits-1)]++
				}
			}
		}
		if first {
			if rank < nans {
				return math.NaN()
			}
			rank -= nans
		}
		d := 0
		for rank >= int(cnt[d]) {
			rank -= int(cnt[d])
			d++
		}
		want |= uint64(d) << shift
		size = int(cnt[d])
	}
	bucket := make([]float64, 0, size)
	for _, p := range parts {
		for i := range p {
			if v := value(&p[i]); v == v && (orderedKey(v)^want)>>shift == 0 {
				bucket = append(bucket, v)
			}
		}
	}
	return selectKth(bucket, rank)
}

// orderedKey maps a non-NaN float to bits whose unsigned order is the
// float order, with -0 just below +0: negative floats flip every bit,
// others set the sign bit.
func orderedKey(v float64) uint64 {
	b := math.Float64bits(v)
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}

// fromOrderedKey inverts orderedKey.
func fromOrderedKey(k uint64) float64 {
	if k>>63 != 0 {
		return math.Float64frombits(k &^ (1 << 63))
	}
	return math.Float64frombits(^k)
}
