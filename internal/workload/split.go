package workload

// Source splitting for sharded fleet simulation.
//
// A fleet run partitions its cores into independent groups (sockets), each
// served by its own Source. The split is by construction, not by
// demultiplexing one stream: group i's source is built with a seed derived
// from the fleet seed and i, so the request sequence each group sees is a
// function of (fleet seed, group index) alone. That is what makes fleet
// results invariant to how groups are packed onto engines and goroutines —
// a group's stream cannot observe how many shards exist or which shard it
// landed on.

// ShardSeed derives the seed for independent group i of a fleet from the
// fleet-level seed. The derivation is a SplitMix64 mix rather than a plain
// XOR so that neighboring group indices produce statistically unrelated
// math/rand streams (XOR alone flips low bits, and LCG-style generators
// seeded with near-equal values start visibly correlated). Deterministic:
// the same (seed, group) always yields the same derived seed, and distinct
// groups yield distinct seeds.
func ShardSeed(seed int64, group int) int64 {
	z := uint64(seed) + (uint64(group)+1)*0x9E3779B97F4A7C15
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z)
}
