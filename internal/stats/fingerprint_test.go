package stats

import (
	"math"
	"testing"
)

// TestHash64PinnedVectors pins the word fold and its finalizer to
// vectors computed independently of this package (state
// s' = m ^ m>>32 with m = (s ^ word) * 0xbf58476d1ce4e5b9 from seed
// 0x9e3779b97f4a7c15, then the SplitMix64 finalizer), so a change to
// the fold, the seed or the finalizer, or a platform that computed them
// differently, fails here rather than as a shifted cache count.
func TestHash64PinnedVectors(t *testing.T) {
	for _, c := range []struct{ v, want uint64 }{
		{0, 0x12c36dc332d09808},
		{1, 0xad9d24dfa1c80875},
		{0xff, 0x9ae6ac3f9de9acf7},
		{1 << 63, 0x55cf8338f07de630},
		{0xdeadbeefcafef00d, 0x4c6ce3e000bf6f02},
		{math.MaxUint64, 0xc6c2b720ac4280f6},
	} {
		if got := NewHash64().Uint64(c.v).Sum(); got != c.want {
			t.Errorf("Uint64(%#x) = %#x, want %#x", c.v, got, c.want)
		}
	}
	if got, want := NewHash64().Sum(), uint64(0xe220a8397b1dcdaf); got != want {
		t.Errorf("empty = %#x, want %#x", got, want)
	}
	// A chain: raw float bits, an int, and a length-prefixed slice.
	got := NewHash64().Float64(0.95).Int(128).Float64s([]float64{0.25, 0.75}).Sum()
	if want := uint64(0xcaecbb894a142188); got != want {
		t.Errorf("chain = %#x, want %#x", got, want)
	}
}

// TestHash64Deterministic checks that identical chains produce identical
// fingerprints and that every folded value influences the result.
func TestHash64Deterministic(t *testing.T) {
	build := func() uint64 {
		return NewHash64().Float64(0.95).Int(128).Float64s([]float64{0.25, 0.75}).Sum()
	}
	if build() != build() {
		t.Fatal("same chain hashed to different fingerprints")
	}
	base := build()
	variants := []uint64{
		NewHash64().Float64(0.99).Int(128).Float64s([]float64{0.25, 0.75}).Sum(),
		NewHash64().Float64(0.95).Int(64).Float64s([]float64{0.25, 0.75}).Sum(),
		NewHash64().Float64(0.95).Int(128).Float64s([]float64{0.25, 0.5}).Sum(),
		NewHash64().Float64(0.95).Int(128).Float64s([]float64{0.75, 0.25}).Sum(),
	}
	for i, v := range variants {
		if v == base {
			t.Errorf("variant %d hashed equal to base %#x", i, base)
		}
	}
}

// TestHash64BitSensitivity checks the raw-bits contract: +0 and -0
// compare == as floats but must fingerprint differently.
func TestHash64BitSensitivity(t *testing.T) {
	pos := NewHash64().Float64(0.0).Sum()
	neg := NewHash64().Float64(math.Copysign(0, -1)).Sum()
	if pos == neg {
		t.Fatal("+0 and -0 fingerprint equal; hash must see raw bits")
	}
}

// TestHash64LengthPrefix checks that slice boundaries are part of the
// fingerprint: the same values split differently must hash differently.
func TestHash64LengthPrefix(t *testing.T) {
	joined := NewHash64().Float64s([]float64{1, 2}).Float64s(nil).Sum()
	split := NewHash64().Float64s([]float64{1}).Float64s([]float64{2}).Sum()
	if joined == split {
		t.Fatal("[1,2]+[] and [1]+[2] fingerprint equal; length prefix missing")
	}
}
