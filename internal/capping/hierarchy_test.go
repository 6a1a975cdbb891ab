package capping

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

func TestHierarchyValidation(t *testing.T) {
	one := []LevelSpec{{Name: "rack", Nodes: 1, CapW: 40}}
	cases := []struct {
		name   string
		levels []LevelSpec
		leaves int
		floorW float64
		maxW   float64
	}{
		{"no levels", nil, 4, 1, 10},
		{"zero leaves", one, 0, 1, 10},
		{"zero floor", one, 4, 0, 10},
		{"max below floor", one, 4, 5, 4},
		{"zero nodes", []LevelSpec{{Name: "rack", Nodes: 0, CapW: 40}}, 4, 1, 10},
		{"zero root budget", []LevelSpec{{Name: "rack", Nodes: 1}}, 4, 1, 10},
		{"negative cap", []LevelSpec{{Name: "rack", Nodes: 1, CapW: 40}, {Name: "pdu", Nodes: 2, CapW: -1}}, 4, 1, 10},
		{"NaN cap", []LevelSpec{{Name: "rack", Nodes: 1, CapW: 40}, {Name: "pdu", Nodes: 2, CapW: math.NaN()}}, 4, 1, 10},
		{"NaN oversub", []LevelSpec{{Name: "rack", Nodes: 1, CapW: 40}, {Name: "pdu", Nodes: 2, Oversub: math.NaN()}}, 4, 1, 10},
		{"NaN floor", one, 4, math.NaN(), 10},
		{"NaN max", one, 4, 1, math.NaN()},
		{"shrinking fan-out", []LevelSpec{{Name: "rack", Nodes: 2, CapW: 40}, {Name: "pdu", Nodes: 1}}, 4, 1, 10},
		{"more nodes than leaves", []LevelSpec{{Name: "rack", Nodes: 1, CapW: 40}, {Name: "pdu", Nodes: 8}}, 4, 1, 10},
		{"fractional oversub", []LevelSpec{{Name: "rack", Nodes: 1, CapW: 40, Oversub: 0.5}}, 4, 1, 10},
	}
	for _, c := range cases {
		if _, err := NewHierarchy(HierarchySpec{Levels: c.levels}, c.leaves, c.floorW, c.maxW); err == nil {
			t.Errorf("%s: NewHierarchy accepted invalid input", c.name)
		}
	}
	if _, err := NewHierarchy(HierarchySpec{Levels: one}, 4, 1, 10); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	if _, err := NewHierarchy(HierarchySpec{Levels: []LevelSpec{{Name: "rack", Nodes: 1, CapW: math.Inf(1)}}}, 4, 1, 10); err != nil {
		t.Fatalf("infinite root budget rejected: %v", err)
	}
}

func TestLevelByName(t *testing.T) {
	for _, name := range []string{"static", "waterfill"} {
		a, err := LevelByName(name)
		if err != nil {
			t.Fatalf("LevelByName(%q): %v", name, err)
		}
		if a.Name() != name {
			t.Fatalf("LevelByName(%q).Name() = %q", name, a.Name())
		}
	}
	if _, err := LevelByName("nope"); err == nil {
		t.Fatal("unknown level allocator accepted")
	}
}

// TestStaticLevelExactShare pins the float-exactness the degenerate
// byte-identity contract rests on: a budget constructed as n·cap divides
// back to exactly cap (one division, no accumulation), so a one-level
// static tree at oversubscription 1 reproduces flat per-socket caps
// bit-for-bit.
func TestStaticLevelExactShare(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 7, 16} {
		children := make([]ChildDemand, n)
		for i := range children {
			children[i] = ChildDemand{FloorW: 1, MaxW: 1000, DemandW: 500}
		}
		grants := make([]float64, n)
		const cap = 24.0
		StaticLevel{}.AllocateLevel(float64(n)*cap, children, grants)
		for i, g := range grants {
			if g != cap {
				t.Fatalf("n=%d: static share %v for child %d, want exactly %v", n, g, i, cap)
			}
		}
	}
}

// bruteForceLevelLeximin enumerates integer grant vectors g in
// [floor, target] with Σ g ≤ budget and returns the leximin-optimal
// sorted vector. Exponential — keep instances tiny.
func bruteForceLevelLeximin(budget float64, floors, targets []int) []int {
	n := len(floors)
	cur := make([]int, n)
	sorted := make([]int, n)
	var best []int
	var walk func(i, sum int)
	walk = func(i, sum int) {
		if float64(sum) > budget {
			return
		}
		if i == n {
			copy(sorted, cur)
			sort.Ints(sorted)
			if best == nil || leximinLess(best, sorted) {
				best = append(best[:0], sorted...)
			}
			return
		}
		for g := floors[i]; g <= targets[i]; g++ {
			cur[i] = g
			walk(i+1, sum+g)
		}
	}
	walk(0, 0)
	return best
}

// TestWaterfillLevelMatchesBruteForce proves leximin optimality holds
// level-wise, mirroring the flat allocator's brute-force pin: on integral
// instances whose budget is realizable at an integral water level, the
// continuous fill must land exactly on the integer leximin optimum over
// all feasible integer vectors.
func TestWaterfillLevelMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for trial := 0; trial < 300; trial++ {
		n := 2 + r.Intn(3)
		floors := make([]int, n)
		targets := make([]int, n)
		children := make([]ChildDemand, n)
		for i := range children {
			floors[i] = r.Intn(4)
			targets[i] = floors[i] + r.Intn(5)
			children[i] = ChildDemand{
				FloorW:  float64(floors[i]),
				MaxW:    float64(targets[i]), // max == target: single-pass instance
				DemandW: float64(targets[i]),
			}
		}
		// A budget realized by an integral water level keeps the optimum
		// integral, so the continuous fill and the integer brute force
		// must agree exactly (modulo interpolation ulps).
		level := float64(r.Intn(9))
		budget := 0.0
		for i := range children {
			budget += clampW(level, children[i].FloorW, children[i].MaxW)
		}
		grants := make([]float64, n)
		WaterfillLevel{}.AllocateLevel(budget, children, grants)

		sum := 0.0
		for i, g := range grants {
			if g < children[i].FloorW-1e-9 || g > children[i].MaxW+1e-9 {
				t.Fatalf("trial %d: grant %v outside [%v, %v]", trial, g, children[i].FloorW, children[i].MaxW)
			}
			sum += g
		}
		if sum > budget+1e-9 {
			t.Fatalf("trial %d: Σ grants %v exceeds budget %v", trial, sum, budget)
		}

		want := bruteForceLevelLeximin(budget, floors, targets)
		got := append([]float64(nil), grants...)
		sort.Float64s(got)
		for i := range want {
			if math.Abs(got[i]-float64(want[i])) > 1e-6 {
				t.Fatalf("trial %d: waterfill %v is not the leximin optimum %v (budget %v, floors %v, targets %v)",
					trial, got, want, budget, floors, targets)
			}
		}
	}
}

// TestWaterfillLevelWideFanOut covers fan-outs at and past maxStackFan,
// where the scratch moves from stack arrays to the heap: a budget
// realized by an integral water level must be granted exactly that level,
// clamped to each child's range.
func TestWaterfillLevelWideFanOut(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	for _, n := range []int{maxStackFan, maxStackFan + 1, 3 * maxStackFan} {
		children := make([]ChildDemand, n)
		for i := range children {
			floor := float64(r.Intn(4))
			target := floor + float64(r.Intn(5))
			children[i] = ChildDemand{FloorW: floor, MaxW: target, DemandW: target}
		}
		level := 3.0
		budget := 0.0
		for _, c := range children {
			budget += clampW(level, c.FloorW, c.MaxW)
		}
		grants := make([]float64, n)
		WaterfillLevel{}.AllocateLevel(budget, children, grants)
		for i, c := range children {
			if want := clampW(level, c.FloorW, c.MaxW); math.Abs(grants[i]-want) > 1e-6 {
				t.Fatalf("fan-out %d: child %d granted %v, want %v", n, i, grants[i], want)
			}
		}
	}
}

// TestHierarchyReallocateAllocationFree pins the Hierarchy contract that
// a round allocates nothing after construction, on the rackcap tree
// (rack -> 2 PDUs at 1.25x oversubscription -> 16 sockets, waterfill at
// both levels).
func TestHierarchyReallocateAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector instruments allocations")
	}
	const sockets = 16
	h, err := NewHierarchy(HierarchySpec{Levels: []LevelSpec{
		{Name: "rack", Nodes: 1, CapW: 16 * sockets},
		{Name: "pdu", Nodes: 2, Oversub: 1.25},
	}}, sockets, 4, 40)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(9))
	demand := make([]float64, sockets)
	for i := range demand {
		demand[i] = 4 + 36*r.Float64()
	}
	i := 0
	if n := testing.AllocsPerRun(200, func() {
		demand[i&15] = 4 + float64(i%37)
		i++
		h.Reallocate(demand)
	}); n != 0 {
		t.Fatalf("Reallocate = %v allocs/op, want 0", n)
	}
}

// TestWaterfillLevelSurplus pins the second pass: budget beyond every
// demand lifts grants toward the maxima instead of evaporating.
func TestWaterfillLevelSurplus(t *testing.T) {
	children := []ChildDemand{
		{FloorW: 2, MaxW: 20, DemandW: 4},
		{FloorW: 2, MaxW: 20, DemandW: 4},
	}
	grants := make([]float64, 2)
	WaterfillLevel{}.AllocateLevel(28, children, grants)
	if grants[0] != 14 || grants[1] != 14 {
		t.Fatalf("surplus not spread toward maxima: %v, want [14 14]", grants)
	}
	// And never past them.
	WaterfillLevel{}.AllocateLevel(1000, children, grants)
	if grants[0] != 20 || grants[1] != 20 {
		t.Fatalf("grants exceeded maxima: %v", grants)
	}
	// Infeasible budgets settle on the floors.
	WaterfillLevel{}.AllocateLevel(1, children, grants)
	if grants[0] != 2 || grants[1] != 2 {
		t.Fatalf("infeasible budget did not floor: %v", grants)
	}
}

// TestHierarchyReallocate walks a rack → PDU → socket tree end to end:
// demand-aware division follows the skew, respects every bound, and is
// deterministic; the rigid static tree starves the loaded socket at the
// same budget.
func TestHierarchyReallocate(t *testing.T) {
	spec := HierarchySpec{Levels: []LevelSpec{
		{Name: "rack", Nodes: 1, CapW: 40},
		{Name: "pdu", Nodes: 2},
	}}
	h, err := NewHierarchy(spec, 4, 2, 20)
	if err != nil {
		t.Fatal(err)
	}
	demand := []float64{18, 2, 2, 2}
	caps := h.Reallocate(demand)
	sum := 0.0
	for i, c := range caps {
		if c < 2 || c > 20 {
			t.Fatalf("leaf %d cap %v outside [2, 20]", i, c)
		}
		sum += c
	}
	if sum > 40+1e-9 {
		t.Fatalf("Σ leaf caps %v exceeds the rack budget", sum)
	}
	if caps[0] < 18 {
		t.Fatalf("demand-aware tree granted the loaded socket %v W, want ≥ its 18 W demand", caps[0])
	}

	// Determinism: a fresh tree over the same demands grants identically.
	h2, err := NewHierarchy(spec, 4, 2, 20)
	if err != nil {
		t.Fatal(err)
	}
	caps0 := append([]float64(nil), caps...)
	if got := h2.Reallocate(demand); !reflect.DeepEqual(caps0, append([]float64(nil), got...)) {
		t.Fatalf("reallocation not deterministic: %v vs %v", caps0, got)
	}

	// The rigid static tree splits 40 W into 10 W shares regardless of
	// the skew: the loaded socket is starved.
	sspec := HierarchySpec{Levels: []LevelSpec{
		{Name: "rack", Nodes: 1, CapW: 40, Alloc: StaticLevel{}},
		{Name: "pdu", Nodes: 2, Alloc: StaticLevel{}},
	}}
	hs, err := NewHierarchy(sspec, 4, 2, 20)
	if err != nil {
		t.Fatal(err)
	}
	scaps := hs.Reallocate(demand)
	if scaps[0] != 10 {
		t.Fatalf("static tree granted %v W, want the rigid 10 W share", scaps[0])
	}

	// A binding PDU cap clamps its subtree even when the rack has room.
	cspec := HierarchySpec{Levels: []LevelSpec{
		{Name: "rack", Nodes: 1, CapW: 400},
		{Name: "pdu", Nodes: 2, CapW: 12},
	}}
	hc, err := NewHierarchy(cspec, 4, 2, 20)
	if err != nil {
		t.Fatal(err)
	}
	ccaps := hc.Reallocate([]float64{18, 18, 18, 18})
	if got := ccaps[0] + ccaps[1]; got > 12+1e-9 {
		t.Fatalf("PDU subtree granted %v W over its 12 W cap", got)
	}

	st := h.Stats()
	if st.Reallocations != 1 {
		t.Fatalf("Reallocations = %d, want 1", st.Reallocations)
	}
	names := []string{"rack", "pdu", "socket"}
	if len(st.Levels) != len(names) {
		t.Fatalf("stats levels = %d, want %d", len(st.Levels), len(names))
	}
	for i, want := range names {
		if st.Levels[i].Name != want {
			t.Fatalf("level %d named %q, want %q", i, st.Levels[i].Name, want)
		}
	}
	if st.Levels[0].MaxGrantW != 40 {
		t.Fatalf("rack grant %v, want its full 40 W budget", st.Levels[0].MaxGrantW)
	}
	if st.Levels[2].Nodes != 4 {
		t.Fatalf("socket level has %d nodes, want 4", st.Levels[2].Nodes)
	}
}

// TestHierarchyOversub pins the oversubscription bet: a level divides
// grant × ratio among children, so leaf grants may sum past the physical
// budget — the provisioning gamble that siblings do not peak together.
func TestHierarchyOversub(t *testing.T) {
	spec := HierarchySpec{Levels: []LevelSpec{
		{Name: "rack", Nodes: 1, CapW: 20, Oversub: 1.5},
	}}
	h, err := NewHierarchy(spec, 2, 1, 100)
	if err != nil {
		t.Fatal(err)
	}
	caps := h.Reallocate([]float64{100, 100})
	if caps[0] != 15 || caps[1] != 15 {
		t.Fatalf("oversubscribed grants %v, want [15 15] (20 W × 1.5 / 2)", caps)
	}
}

// randomTree draws a budget tree for the property and digest tests: 1–3
// levels over up to 12 sockets, root budgets from starved to unbounded,
// optional sub-root caps (some below their subtree's floor) and
// oversubscription. Static levels are drawn only when even is set, and
// then every level's node count divides the next one's and the socket
// count, so siblings always have equal floors.
func randomTree(r *rand.Rand, even bool) (spec HierarchySpec, leaves int, floorW, maxW float64) {
	depth := 1 + r.Intn(3)
	leaves = 1 + r.Intn(12)
	counts := make([]int, depth)
	if even {
		counts[depth-1] = leaves
		for li := depth - 1; li >= 0; li-- {
			var divs []int
			for d := 1; d <= counts[li]; d++ {
				if counts[li]%d == 0 {
					divs = append(divs, d)
				}
			}
			counts[li] = divs[r.Intn(len(divs))]
			if li > 0 {
				counts[li-1] = counts[li]
			}
		}
	} else {
		n := 1
		for li := range counts {
			n += r.Intn(leaves - n + 1)
			counts[li] = n
		}
	}
	floorW = 1 + 5*r.Float64()
	maxW = floorW
	if r.Intn(4) != 0 {
		maxW += 30 * r.Float64()
	}
	for li, n := range counts {
		ls := LevelSpec{Name: fmt.Sprintf("l%d", li), Nodes: n}
		switch r.Intn(3) {
		case 0:
			ls.CapW = float64(leaves) * maxW * r.Float64() / float64(n)
		case 1:
			ls.CapW = float64(leaves) * (floorW + (maxW-floorW)*r.Float64()) / float64(n)
		}
		if li == 0 && ls.CapW == 0 {
			ls.CapW = math.Inf(1)
		}
		if r.Intn(2) == 0 {
			ls.Oversub = 1 + r.Float64()/2
		}
		if even && r.Intn(2) == 0 {
			ls.Alloc = StaticLevel{}
		}
		spec.Levels = append(spec.Levels, ls)
	}
	return spec, leaves, floorW, maxW
}

// TestHierarchyDigest pins Reallocate's grants and Stats bit for bit over
// seeded random trees, five rounds each, by a digest recorded when the
// tree still treated sockets as a special case in every sweep. Static
// levels appear only on evenly divided trees, where every child of a node
// has the same floor.
func TestHierarchyDigest(t *testing.T) {
	r := rand.New(rand.NewSource(28))
	d := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		d.Write(b[:])
	}
	for tree := 0; tree < 3000; tree++ {
		spec, leaves, floorW, maxW := randomTree(r, tree%2 == 0)
		h, err := NewHierarchy(spec, leaves, floorW, maxW)
		if err != nil {
			t.Fatalf("tree %d: %v", tree, err)
		}
		demand := make([]float64, leaves)
		for round := 0; round < 5; round++ {
			for i := range demand {
				demand[i] = 1.2 * maxW * r.Float64()
			}
			for _, g := range h.Reallocate(demand) {
				put(math.Float64bits(g))
			}
		}
		st := h.Stats()
		put(uint64(st.Reallocations))
		for _, ls := range st.Levels {
			d.Write([]byte(ls.Name + "/" + ls.Allocator))
			put(uint64(ls.Nodes))
			put(math.Float64bits(ls.MinGrantW))
			put(math.Float64bits(ls.MaxGrantW))
			put(math.Float64bits(ls.AvgGrantW))
			put(uint64(ls.Throttled))
		}
	}
	if got, want := d.Sum64(), uint64(0x48791b98ab654216); got != want {
		t.Fatalf("hierarchy digest %#x, want %#x", got, want)
	}
}

// TestStaticLevelPaysBindingFloors pins the static rule on a feasible node
// whose children have unequal floors: a rack of 14 W over two static PDUs
// feeding 1 and 2 sockets (floor 4 W each). The equal 7 W share is below
// the second PDU's 8 W floor, so that PDU gets its floor and the first
// the remaining 6 W — never the 15 W an equal share clamped up to each
// floor would spend.
func TestStaticLevelPaysBindingFloors(t *testing.T) {
	h, err := NewHierarchy(HierarchySpec{Levels: []LevelSpec{
		{Name: "rack", Nodes: 1, CapW: 14, Alloc: StaticLevel{}},
		{Name: "pdu", Nodes: 2, Alloc: StaticLevel{}},
	}}, 3, 4, 20)
	if err != nil {
		t.Fatal(err)
	}
	got := append([]float64(nil), h.Reallocate([]float64{20, 20, 20})...)
	if want := []float64{6, 4, 4}; !reflect.DeepEqual(got, want) {
		t.Fatalf("static leaf grants %v, want %v", got, want)
	}

	// An infeasible budget grants every child its floor.
	grants := make([]float64, 3)
	StaticLevel{}.AllocateLevel(5, []ChildDemand{
		{FloorW: 1, MaxW: 9}, {FloorW: 2, MaxW: 9}, {FloorW: 3, MaxW: 9},
	}, grants)
	if want := []float64{1, 2, 3}; !reflect.DeepEqual(grants, want) {
		t.Fatalf("infeasible static grants %v, want the floors %v", grants, want)
	}
}

// TestHierarchyHoldsEveryLevelCap checks, on random trees with both
// allocators, that every level holds its cap at every round: each node's
// grant is at most max(CapW, floor), its children's grants sum to at most
// grant × Oversub whenever their floors fit in it, and every child is
// granted within its [floor, max] bounds.
func TestHierarchyHoldsEveryLevelCap(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for tree := 0; tree < 2000; tree++ {
		spec, leaves, floorW, maxW := randomTree(r, tree%2 == 0)
		if tree%2 == 1 {
			for li := range spec.Levels {
				if r.Intn(2) == 0 {
					spec.Levels[li].Alloc = StaticLevel{}
				}
			}
		}
		h, err := NewHierarchy(spec, leaves, floorW, maxW)
		if err != nil {
			t.Fatalf("tree %d: %v", tree, err)
		}
		demand := make([]float64, leaves)
		for round := 0; round < 5; round++ {
			for i := range demand {
				demand[i] = 1.2 * maxW * r.Float64()
			}
			h.Reallocate(demand)
			for li, st := range h.levels {
				for j, nd := range st.nodes {
					g := st.grantW[j]
					if g > max(st.spec.CapW, nd.floorW) {
						t.Fatalf("tree %d round %d: %s node %d granted %v W over its %v W cap",
							tree, round, st.spec.Name, j, g, st.spec.CapW)
					}
					if li+1 == len(h.levels) {
						continue
					}
					next := h.levels[li+1]
					budget := g * st.spec.Oversub
					var sumG, sumF float64
					for c := nd.lo; c < nd.hi; c++ {
						cg, cn := next.grantW[c], next.nodes[c]
						if cg < cn.floorW || cg > cn.maxW {
							t.Fatalf("tree %d round %d: %s node %d granted %v W outside [%v, %v]",
								tree, round, next.spec.Name, c, cg, cn.floorW, cn.maxW)
						}
						sumG += cg
						sumF += cn.floorW
					}
					if sumF <= budget && sumG > budget*(1+1e-9) {
						t.Fatalf("tree %d round %d: children of %s node %d granted %v W over its %v W budget",
							tree, round, st.spec.Name, j, sumG, budget)
					}
				}
			}
		}
	}
}
