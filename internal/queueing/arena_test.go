package queueing

import (
	"math/rand"
	"reflect"
	"testing"
	"unsafe"

	"rubik/internal/sim"
	"rubik/internal/workload"
)

// fillArena records counts[u] completions for each user u of a fresh
// arena sized for hint records, interleaving the users pseudo-randomly,
// and returns the arena's per-user logs next to plain-append references.
func fillArena(t *testing.T, hint int, counts []int, seed int64) (got, want [][]Completion) {
	t.Helper()
	a := NewArena(hint, len(counts))
	logs := make([]arenaLog, len(counts))
	want = make([][]Completion, len(counts))
	left := 0
	for u := range counts {
		logs[u] = arenaLog{a: a, user: a.join()}
		left += counts[u]
	}
	r := rand.New(rand.NewSource(seed))
	id := 0
	for ; left > 0; left-- {
		u := r.Intn(len(counts))
		for len(want[u]) == counts[u] {
			u = (u + 1) % len(counts)
		}
		c := Completion{ID: id, Arrival: sim.Time(id), Done: sim.Time(u*1_000_000 + id)}
		id++
		logs[u].add(&c)
		want[u] = append(want[u], c)
	}
	got = make([][]Completion, len(counts))
	for u := range counts {
		got[u] = logs[u].records(counts[u])
	}
	return got, want
}

// TestArenaMatchesAppend pins the arena to plain per-user appends: each
// user's log holds its records in order after sealing, whatever the
// chunk boundaries, the interleaving or the accuracy of the length hint.
func TestArenaMatchesAppend(t *testing.T) {
	chunk := NewArena(0, 1).chunk
	cases := []struct {
		name   string
		hint   int // -1: the exact total
		counts []int
	}{
		{"single user", -1, []int{500}},
		{"single user one chunk", -1, []int{chunk}},
		{"idle users", -1, []int{0, 37, 0, 0, 5, 0}},
		{"exactly one chunk", -1, []int{chunk, chunk, chunk}},
		{"one chunk plus one", -1, []int{chunk + 1, 1, chunk + 1}},
		{"skewed", -1, []int{5330, 4802, 4231, 3684, 3174, 2779}},
		{"hint zero", 0, []int{300, 0, 77, 1}},
		{"hint low", 100, []int{900, 450, 17}},
		{"hint high", 100_000, []int{40, 3}},
		{"nothing recorded", -1, []int{0, 0}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			hint := tc.hint
			if hint < 0 {
				hint = 0
				for _, n := range tc.counts {
					hint += n
				}
			}
			for seed := int64(1); seed <= 3; seed++ {
				got, want := fillArena(t, hint, tc.counts, seed)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d: arena logs differ from plain appends", seed)
				}
				for u, g := range got {
					if cap(g) != len(g) {
						t.Fatalf("user %d log has cap %d > len %d", u, cap(g), len(g))
					}
				}
			}
		})
	}
}

// TestArenaSlabBound pins the sizing: with an exact hint, however the
// records split, the slab never regrows and holds the records plus at
// most one partly filled chunk per user.
func TestArenaSlabBound(t *testing.T) {
	counts := []int{5330, 4802, 4231, 3684, 3174, 2779}
	n := 0
	for _, c := range counts {
		n += c
	}
	a := NewArena(n, len(counts))
	for u, c := range counts {
		l := arenaLog{a: a, user: a.join()}
		for i := 0; i < c; i++ {
			l.add(&Completion{ID: u})
		}
	}
	if cap(a.slab) != a.want {
		t.Fatalf("slab regrew: cap %d, reserved %d", cap(a.slab), a.want)
	}
	if limit := n + len(counts)*a.chunk; cap(a.slab) > limit {
		t.Fatalf("slab holds %d records, more than %d + %d chunks of %d", cap(a.slab), n, len(counts), a.chunk)
	}
}

// TestArenaViewsDoNotOverlap appends to one user's returned log and
// checks the neighbour's records survive: a view's capacity ends at its
// length, so append copies.
func TestArenaViewsDoNotOverlap(t *testing.T) {
	got, want := fillArena(t, 60, []int{25, 35}, 1)
	_ = append(got[0], Completion{ID: -1})
	if !reflect.DeepEqual(got[1], want[1]) {
		t.Fatal("appending to user 0's log overwrote user 1's records")
	}
}

// observingPolicy is a fixed-frequency policy that keeps its own
// plain-append log of the completions it observes.
type observingPolicy struct {
	FixedPolicy
	log []Completion
}

func (p *observingPolicy) ObserveCompletion(c Completion) { p.log = append(p.log, c) }

// shortSource under-reports its length: Len claims at most `claim`
// requests remain.
type shortSource struct {
	workload.Source
	claim int
}

func (s shortSource) Len() int { return min(s.claim, s.Source.Len()) }

// TestRunSourceLogUnderReportedLen runs a single core on sources whose
// Len is exact, low and zero: the arena regrows like append, and the log
// equals the policy's own record of every completion.
func TestRunSourceLogUnderReportedLen(t *testing.T) {
	tr := workload.GenerateAtLoad(workload.Masstree(), 0.6, 700, 4)
	for _, claim := range []int{len(tr.Requests), 50, 0} {
		p := &observingPolicy{FixedPolicy: FixedPolicy{MHz: 2400}}
		src := shortSource{Source: workload.NewTraceSource(tr), claim: claim}
		res, err := RunSource(src, p, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Completions) != len(tr.Requests) || !reflect.DeepEqual(res.Completions, p.log) {
			t.Fatalf("Len %d: log of %d records differs from the %d observed", claim, len(res.Completions), len(p.log))
		}
	}
}

// TestCompletionRecordSize pins a completion record at 56 bytes, the
// space an arena slab reserves per request: its latencies are derived
// from its timestamps, not stored beside them.
func TestCompletionRecordSize(t *testing.T) {
	if got := unsafe.Sizeof(Completion{}); got != 56 {
		t.Fatalf("a Completion is %d bytes, want 56", got)
	}
	c := Completion{Arrival: 100, Start: 250, Done: 1_000}
	if c.ResponseNs() != 900 || c.ServiceNs() != 750 {
		t.Fatalf("latencies (%v, %v), want (900, 750)", c.ResponseNs(), c.ServiceNs())
	}
}
