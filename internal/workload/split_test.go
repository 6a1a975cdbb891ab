package workload

import "testing"

// TestShardSeed checks the derivation contract: stable per (seed, group),
// distinct across groups and across fleet seeds, and not the identity on
// group 0 (a fleet's socket 0 must not replay the unsharded stream).
func TestShardSeed(t *testing.T) {
	seen := map[int64]int{}
	for g := 0; g < 1000; g++ {
		s := ShardSeed(42, g)
		if s != ShardSeed(42, g) {
			t.Fatalf("ShardSeed(42, %d) unstable", g)
		}
		if prev, dup := seen[s]; dup {
			t.Fatalf("ShardSeed collision: groups %d and %d both derive %d", prev, g, s)
		}
		seen[s] = g
	}
	if ShardSeed(42, 0) == 42 {
		t.Fatal("group 0 derives the fleet seed itself")
	}
	if ShardSeed(42, 5) == ShardSeed(43, 5) {
		t.Fatal("distinct fleet seeds derive the same group seed")
	}
}
