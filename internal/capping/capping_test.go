package capping

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"rubik/internal/cpu"
)

func testDomain(t testing.TB, capW float64, cores int) *Domain {
	t.Helper()
	d, err := NewDomain(cpu.DefaultGrid(), cpu.DefaultPowerModel(), capW, cores)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// sumEps is the float tolerance for budget checks: strategies accumulate
// grant power as sums of exact per-step values, so any drift is a few ulps
// of the cap.
func sumEps(capW float64) float64 { return capW * 1e-9 }

func TestNewDomainValidation(t *testing.T) {
	grid := cpu.DefaultGrid()
	model := cpu.DefaultPowerModel()
	cases := []struct {
		name  string
		grid  cpu.Grid
		capW  float64
		cores int
	}{
		{"empty grid", cpu.Grid{}, 30, 4},
		{"zero cap", grid, 0, 4},
		{"negative cap", grid, -5, 4},
		{"NaN cap", grid, math.NaN(), 4},
		{"zero cores", grid, 30, 0},
	}
	for _, c := range cases {
		if _, err := NewDomain(c.grid, model, c.capW, c.cores); err == nil {
			t.Errorf("%s: NewDomain accepted invalid input", c.name)
		}
	}
	if _, err := NewDomain(grid, model, math.Inf(1), 4); err != nil {
		t.Errorf("infinite cap rejected: %v", err)
	}
}

func TestDomainPowerCurve(t *testing.T) {
	grid := cpu.DefaultGrid()
	model := cpu.DefaultPowerModel()
	d := testDomain(t, 30, 6)
	for i := 0; i < grid.Len(); i++ {
		if got, want := d.PowerAt(i), model.ActivePower(grid.Step(i)); got != want {
			t.Fatalf("PowerAt(%d) = %v, want %v", i, got, want)
		}
	}
	if d.MinPowerW() != d.PowerAt(0) || d.MaxPowerW() != d.PowerAt(grid.Len()-1) {
		t.Fatalf("curve extremes = (%v, %v), want the end steps", d.MinPowerW(), d.MaxPowerW())
	}
	if !(6*d.PowerAt(0) <= 30) {
		t.Fatal("6 cores at minimum should fit 30 W")
	}
}

func TestByName(t *testing.T) {
	for _, name := range Names() {
		a, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if a.Name() != name {
			t.Fatalf("ByName(%q).Name() = %q", name, a.Name())
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("unknown allocator accepted")
	}
}

// randomDemands draws a deterministic demand vector: desired indices over
// the full grid, slacks in [0, 1e6) ns with occasional exact ties and
// zeros (the regimes that exposed the greedy-slack tie-break bug).
func randomDemands(r *rand.Rand, grid cpu.Grid, n int) []Demand {
	demands := make([]Demand, n)
	for i := range demands {
		demands[i].DesiredIdx = r.Intn(grid.Len())
		switch r.Intn(3) {
		case 0:
			demands[i].SlackNs = 0
		case 1:
			demands[i].SlackNs = 250_000
		default:
			demands[i].SlackNs = r.Float64() * 1e6
		}
	}
	return demands
}

// TestAllocatorInvariants is the property sweep over every strategy:
// grants stay on-grid and at or below desires, the budget holds at every
// decision point whenever the domain is feasible, infeasible domains
// pin everything to the minimum step, and allocation is a deterministic
// function of (domain, demands).
func TestAllocatorInvariants(t *testing.T) {
	grid := cpu.DefaultGrid()
	caps := []float64{3, 7, 15, 24, 40, 80, math.Inf(1)}
	for _, name := range Names() {
		alloc, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(name, func(t *testing.T) {
			r := rand.New(rand.NewSource(7))
			for trial := 0; trial < 400; trial++ {
				n := 1 + r.Intn(8)
				capW := caps[r.Intn(len(caps))]
				d := testDomain(t, capW, n)
				demands := randomDemands(r, grid, n)
				grants := make([]int, n)
				alloc.Allocate(d, demands, grants)

				for i, g := range grants {
					if g < 0 || g >= grid.Len() {
						t.Fatalf("trial %d: grant %d off grid: %d", trial, i, g)
					}
					if g > demands[i].DesiredIdx {
						t.Fatalf("trial %d: core %d granted %d above desired %d",
							trial, i, g, demands[i].DesiredIdx)
					}
				}
				sum := d.PowerOf(grants)
				feasible := float64(n)*d.PowerAt(0) <= capW
				if feasible && sum > capW+sumEps(capW) {
					t.Fatalf("trial %d: budget exceeded: Σ=%.9f W > cap %.9f W (grants %v)",
						trial, sum, capW, grants)
				}
				if !feasible {
					for i, g := range grants {
						if g != 0 {
							t.Fatalf("trial %d: infeasible domain granted core %d step %d, want step 0",
								trial, i, g)
						}
					}
				}

				// Determinism: a fresh allocator on a fresh domain with the
				// same demands produces the same grants.
				alloc2, _ := ByName(name)
				d2 := testDomain(t, capW, n)
				grants2 := make([]int, n)
				alloc2.Allocate(d2, demands, grants2)
				if !reflect.DeepEqual(grants, grants2) {
					t.Fatalf("trial %d: allocation not deterministic: %v vs %v", trial, grants, grants2)
				}
			}
		})
	}
}

// TestSetCapW pins budget retargeting: the hierarchy re-grants socket
// caps between rounds, so the same domain must re-allocate under the new
// budget, and invalid caps must be rejected.
func TestSetCapW(t *testing.T) {
	d := testDomain(t, 80, 4)
	top := d.Grid().Len() - 1
	demands := []Demand{{DesiredIdx: top}, {DesiredIdx: top}, {DesiredIdx: top}, {DesiredIdx: top}}
	grants := make([]int, 4)
	Waterfill{}.Allocate(d, demands, grants)
	if !reflect.DeepEqual(grants, []int{top, top, top, top}) {
		t.Fatalf("80 W should admit all desires: %v", grants)
	}
	if err := d.SetCapW(12); err != nil {
		t.Fatal(err)
	}
	if d.CapW() != 12 {
		t.Fatalf("CapW = %v after SetCapW(12)", d.CapW())
	}
	Waterfill{}.Allocate(d, demands, grants)
	if sum := d.PowerOf(grants); sum > 12+sumEps(12) {
		t.Fatalf("retargeted budget exceeded: Σ=%v W (grants %v)", sum, grants)
	}
	for _, bad := range []float64{0, -3, math.NaN()} {
		if err := d.SetCapW(bad); err == nil {
			t.Fatalf("SetCapW(%v) accepted", bad)
		}
	}
}

// TestUniformEqualShare pins the defining property of the baseline: every
// core's granted power fits CapW / members, even when siblings leave
// headroom unused.
func TestUniformEqualShare(t *testing.T) {
	const n = 6
	d := testDomain(t, 24, n)
	demands := make([]Demand, n)
	demands[0].DesiredIdx = d.Grid().Len() - 1 // wants everything
	// Everyone else wants (and gets) the minimum: their unused share must
	// NOT flow to core 0.
	grants := make([]int, n)
	Uniform{}.Allocate(d, demands, grants)
	share := 24.0 / n
	if p := d.PowerAt(grants[0]); p > share {
		t.Fatalf("uniform granted core 0 %.3f W above its %.3f W share", p, share)
	}
	if grants[0]+1 < d.Grid().Len() && d.PowerAt(grants[0]+1) <= share {
		t.Fatalf("uniform under-granted core 0: next step still fits the share")
	}
}

// TestGreedySlackDonationOrder pins the strategy's contract: under a
// binding cap, the core with the most predicted slack donates first, and
// zero-slack ties shed from the highest-granted core instead of bottoming
// out the lowest index.
func TestGreedySlackDonationOrder(t *testing.T) {
	grid := cpu.DefaultGrid()
	top := grid.Len() - 1
	// Cap just below 3 cores at max: exactly one step must be donated.
	d3 := testDomain(t, 3*cpu.DefaultPowerModel().ActivePower(grid.Max())-0.01, 3)
	demands := []Demand{
		{DesiredIdx: top, SlackNs: 1000},
		{DesiredIdx: top, SlackNs: 9000}, // most slack: donates
		{DesiredIdx: top, SlackNs: 2000},
	}
	grants := make([]int, 3)
	GreedySlack{}.Allocate(d3, demands, grants)
	if want := []int{top, top - 1, top}; !reflect.DeepEqual(grants, want) {
		t.Fatalf("slack-rich core did not donate: grants %v, want %v", grants, want)
	}

	// All-zero slack with asymmetric desires: donations must equalize from
	// the top, not pin core 0 to the minimum.
	d2 := testDomain(t, 9, 3)
	demands = []Demand{{DesiredIdx: top}, {DesiredIdx: top}, {DesiredIdx: top}}
	grants = make([]int, 3)
	GreedySlack{}.Allocate(d2, demands, grants)
	sort.Ints(grants)
	if grants[0] == 0 && grants[2] == top {
		t.Fatalf("zero-slack ties bottomed a core out: grants %v", grants)
	}
	if sum := d2.PowerOf(grants); sum > 9+sumEps(9) {
		t.Fatalf("budget exceeded: %.6f W", sum)
	}
}

// bruteForceLeximin enumerates every grant vector bounded by the desires
// and returns the best sorted grant vector under the leximin order (max
// the smallest grant, then the next, ...) among budget-feasible vectors.
// Exponential — keep grids and core counts tiny.
func bruteForceLeximin(d *Domain, demands []Demand) []int {
	n := len(demands)
	cur := make([]int, n)
	var best []int
	sorted := make([]int, n)
	var walk func(i int)
	walk = func(i int) {
		if i == n {
			if d.PowerOf(cur) > d.capW {
				return
			}
			copy(sorted, cur)
			sort.Ints(sorted)
			if best == nil || leximinLess(best, sorted) {
				best = append(best[:0], sorted...)
			}
			return
		}
		for g := 0; g <= demands[i].DesiredIdx; g++ {
			cur[i] = g
			walk(i + 1)
		}
	}
	walk(0)
	return best
}

// leximinLess reports whether sorted vector a is strictly worse than b in
// the leximin order.
func leximinLess(a, b []int) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// TestWaterfillMatchesBruteForce pins waterfill against exhaustive
// enumeration on small grids: its sorted grant vector must be the leximin
// optimum (max-min fairness) over every feasible grant vector, for random
// small domains.
func TestWaterfillMatchesBruteForce(t *testing.T) {
	steps := []int{800, 1200, 1600, 2000, 2400}
	grid, err := cpu.NewGrid(steps)
	if err != nil {
		t.Fatal(err)
	}
	model := cpu.DefaultPowerModel()
	minW := model.ActivePower(steps[0])
	maxW := model.ActivePower(steps[len(steps)-1])
	r := rand.New(rand.NewSource(21))
	for trial := 0; trial < 200; trial++ {
		n := 2 + r.Intn(3)
		capW := float64(n) * (minW + r.Float64()*(maxW-minW))
		d, err := NewDomain(grid, model, capW, n)
		if err != nil {
			t.Fatal(err)
		}
		demands := make([]Demand, n)
		for i := range demands {
			demands[i].DesiredIdx = r.Intn(grid.Len())
		}
		grants := make([]int, n)
		Waterfill{}.Allocate(d, demands, grants)
		if sum := d.PowerOf(grants); sum > capW+sumEps(capW) {
			t.Fatalf("trial %d: waterfill exceeded budget: %.9f > %.9f", trial, sum, capW)
		}

		want := bruteForceLeximin(d, demands)
		got := append([]int(nil), grants...)
		sort.Ints(got)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: waterfill %v (sorted %v) is not the leximin optimum %v (cap %.3f W, demands %+v)",
				trial, grants, got, want, capW, demands)
		}
	}
}

// TestAllocateZeroAlloc guards the per-decision path: one allocation
// round performs zero heap allocations for every strategy. (The race
// detector instruments allocations, so the guard only runs uninstrumented.)
func TestAllocateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is unreliable under the race detector")
	}
	grid := cpu.DefaultGrid()
	r := rand.New(rand.NewSource(3))
	demands := randomDemands(r, grid, 6)
	grants := make([]int, 6)
	for _, name := range Names() {
		alloc, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		d := testDomain(t, 20, 6)
		if n := testing.AllocsPerRun(100, func() {
			alloc.Allocate(d, demands, grants)
		}); n != 0 {
			t.Errorf("%s: Allocate performs %.1f allocs per round, want 0", name, n)
		}
	}
}
