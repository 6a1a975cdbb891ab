package queueing

import "slices"

// chunksPerCore sets an Arena's chunk length: a core's fair share of the
// run, ceil(n/cores), spans about this many chunks, so the partly filled
// chunk each core may end on wastes at most 1/chunksPerCore of the slab.
const chunksPerCore = 64

// minChunk is the shortest chunk, for short or unknown-length runs.
const minChunk = 16

// Arena records the completions of the cores of one socket in a single
// slab. Each core appends into fixed-size chunks it claims from the slab
// in order, so the slab fills front to back however dispatch splits the
// requests, and it holds the source's length plus at most one partly
// filled chunk per core. Sealing (the first Core.Finalize) permutes the
// chunks in place so that each core's sit contiguously in service order,
// and every core's log becomes a view of the slab.
//
// A per-core log presized to the fair share ceil(n/cores) overflowed on
// every core that dispatch favoured: JSQ breaks ties toward the lowest
// index, so half of a paper socket's cores outgrew their logs and copied
// them, while the rest left capacity idle.
//
// An Arena belongs to one engine's goroutine, like the cores it serves.
type Arena struct {
	chunk int // records per chunk
	want  int // slab capacity to reserve at the first claim
	users int

	// slab holds the claimed chunks back to back; owner[k] is the user
	// that claimed chunk k, slab[k*chunk:(k+1)*chunk].
	slab  []Completion
	owner []int32

	// first[u] is user u's first chunk once sealed (nil before).
	first []int
}

// NewArena returns an arena for about n completions spread over cores
// cores. n is the source's Len: a low n only costs slab regrowth, as
// with append, and a record is never dropped. The slab is allocated at
// the first record, so an arena of streaming cores (DropCompletions)
// costs nothing.
func NewArena(n, cores int) *Arena {
	n, cores = max(n, 0), max(cores, 1)
	chunk := max(minChunk, (n+cores-1)/cores/chunksPerCore)
	// Every core's chunks are full but its last, so the claimed chunks
	// number at most sum ceil(n_i/chunk) <= (n + cores*(chunk-1))/chunk.
	return &Arena{chunk: chunk, want: (n + cores*(chunk-1)) / chunk * chunk}
}

// join registers a new user (core) and returns its index.
func (a *Arena) join() int {
	a.users++
	return a.users - 1
}

// claim hands user u the next chunk and returns the slab index of its
// first record.
func (a *Arena) claim(u int) int {
	if a.first != nil {
		panic("queueing: completion recorded after the arena was sealed")
	}
	if a.slab == nil {
		a.slab = make([]Completion, 0, max(a.want, a.chunk))
	}
	at := len(a.slab)
	a.slab = slices.Grow(a.slab, a.chunk)[:at+a.chunk]
	a.owner = append(a.owner, int32(u))
	return at
}

// seal permutes the claimed chunks so that each user's chunks are
// contiguous, users in order and each user's chunks in claim (service)
// order. Every chunk moves at most once, following the permutation's
// cycles through one spare chunk.
func (a *Arena) seal() {
	a.first = make([]int, a.users+1)
	for _, u := range a.owner {
		a.first[u+1]++
	}
	for u := range a.users {
		a.first[u+1] += a.first[u]
	}
	// from[d] is the chunk that belongs at slot d.
	from := make([]int32, len(a.owner))
	next := append([]int(nil), a.first[:a.users]...)
	for k, u := range a.owner {
		from[next[u]] = int32(k)
		next[u]++
	}
	var spare []Completion
	for d := range from {
		if int(from[d]) == d {
			continue
		}
		if spare == nil {
			spare = make([]Completion, a.chunk)
		}
		copy(spare, a.chunkAt(d))
		j := d
		for int(from[j]) != d {
			k := int(from[j])
			copy(a.chunkAt(j), a.chunkAt(k))
			from[j] = int32(j)
			j = k
		}
		copy(a.chunkAt(j), spare)
		from[j] = int32(j)
	}
}

// chunkAt returns slot k of the slab.
func (a *Arena) chunkAt(k int) []Completion {
	return a.slab[k*a.chunk : (k+1)*a.chunk]
}

// records returns user u's first n completions, sealing the arena on the
// first call. The view's capacity is its length, so appending to it
// copies instead of overwriting another user's records.
func (a *Arena) records(u, n int) []Completion {
	if n == 0 {
		return nil
	}
	if a.first == nil {
		a.seal()
	}
	s := a.first[u] * a.chunk
	return a.slab[s : s+n : s+n]
}

// arenaLog is one core's append cursor into its arena: slab[at:end] is
// the unused rest of the core's current chunk.
type arenaLog struct {
	a       *Arena
	user    int
	at, end int
}

// add records c, claiming a new chunk when the current one is full.
func (l *arenaLog) add(c *Completion) {
	if l.at == l.end {
		l.at = l.a.claim(l.user)
		l.end = l.at + l.a.chunk
	}
	l.a.slab[l.at] = *c
	l.at++
}

// records returns the core's n completions (nil when it has no arena).
func (l *arenaLog) records(n int) []Completion {
	if l.a == nil {
		return nil
	}
	return l.a.records(l.user, n)
}
