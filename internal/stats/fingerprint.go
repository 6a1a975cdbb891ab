package stats

import "math"

// Hash64 is an incremental 64-bit fingerprint over raw value bits. It
// is the content-addressing primitive behind the tail-table rebuild
// cache: two inputs hash equal exactly when their binary representations
// are byte-identical, which is the precondition for sharing the output
// of a bit-deterministic pipeline. Floats are hashed through
// Float64bits, so +0 and -0 (which compare ==) fingerprint differently —
// deliberately conservative: a spurious mismatch costs one redundant
// rebuild, a spurious match would corrupt results. Hash64 is a value;
// every method returns the advanced state, so fingerprints compose by
// chaining without allocating.
//
// Each 64-bit word costs one multiply-xorshift step, a bijection of the
// state for a fixed word, so keys of one length that differ in a single
// word never collide; Sum finishes with a full avalanche. The arithmetic
// is plain uint64, so a fingerprint is the same on every platform. It is
// not collision-free over these input sizes: callers that cache by
// fingerprint must verify the full key on a hash hit (see
// core.TableCache).
type Hash64 uint64

const (
	hashSeed Hash64 = 0x9e3779b97f4a7c15
	hashMul         = 0xbf58476d1ce4e5b9
)

// NewHash64 returns the initial state.
func NewHash64() Hash64 { return hashSeed }

// Uint64 folds v into the hash: one multiply, then a xorshift that
// brings the product's high bits down to where the next word's multiply
// spreads them.
func (h Hash64) Uint64(v uint64) Hash64 {
	x := (uint64(h) ^ v) * hashMul
	return Hash64(x ^ x>>32)
}

// Float64 folds the raw IEEE-754 bits of v into the hash.
func (h Hash64) Float64(v float64) Hash64 { return h.Uint64(math.Float64bits(v)) }

// Int folds v into the hash.
func (h Hash64) Int(v int) Hash64 { return h.Uint64(uint64(int64(v))) }

// Float64s folds a length prefix and every element's raw bits into the
// hash. The prefix keeps concatenated slices from aliasing: hashing
// [a] then [b] differs from hashing [a, b].
func (h Hash64) Float64s(s []float64) Hash64 {
	h = h.Int(len(s))
	for _, v := range s {
		h = h.Float64(v)
	}
	return h
}

// Sum returns the current fingerprint: the state through the SplitMix64
// finalizer, so every state bit reaches every fingerprint bit.
func (h Hash64) Sum() uint64 {
	x := uint64(h)
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}
