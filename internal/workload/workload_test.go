package workload

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"rubik/internal/cpu"
	"rubik/internal/sim"
	"rubik/internal/stats"
)

func TestAppsRegistry(t *testing.T) {
	apps := Apps()
	if len(apps) != 5 {
		t.Fatalf("want 5 apps, got %d", len(apps))
	}
	wantOrder := []string{"masstree", "moses", "shore", "specjbb", "xapian"}
	wantReqs := map[string]int{
		"xapian": 6000, "masstree": 9000, "moses": 900, "shore": 7500, "specjbb": 37500,
	}
	for i, a := range apps {
		if a.Name != wantOrder[i] {
			t.Errorf("apps[%d] = %s, want %s", i, a.Name, wantOrder[i])
		}
		if a.Requests != wantReqs[a.Name] {
			t.Errorf("%s requests = %d, want %d (paper Table 3)", a.Name, a.Requests, wantReqs[a.Name])
		}
		if a.Workload == "" {
			t.Errorf("%s has no workload description", a.Name)
		}
	}
	if _, err := AppByName("masstree"); err != nil {
		t.Fatal(err)
	}
	if _, err := AppByName("nope"); err == nil {
		t.Fatal("unknown app must error")
	}
}

// serviceCV estimates the coefficient of variation of nominal-frequency
// service times for an app.
func serviceCV(t *testing.T, app LCApp, n int) float64 {
	t.Helper()
	r := rand.New(rand.NewSource(1234))
	xs := make([]float64, n)
	for i := range xs {
		cc, mt := app.SampleRequest(r)
		xs[i] = cc*1000/float64(cpu.NominalMHz) + float64(mt)
	}
	_, cv := meanCV(xs)
	return cv
}

// meanCV returns the mean and coefficient of variation (population
// standard deviation over mean) of xs.
func meanCV(xs []float64) (mean, cv float64) {
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	var ss float64
	for _, x := range xs {
		ss += (x - mean) * (x - mean)
	}
	return mean, math.Sqrt(ss/float64(len(xs))) / mean
}

func TestAppServiceVariability(t *testing.T) {
	// Paper Sec. 3/5: masstree and moses have tightly clustered service
	// times; shore, specjbb and xapian are variable.
	const n = 30000
	tight := map[string]bool{"masstree": true, "moses": true}
	for _, app := range Apps() {
		cv := serviceCV(t, app, n)
		if tight[app.Name] {
			if cv > 0.30 {
				t.Errorf("%s service CV = %.2f, want tightly clustered (<0.30)", app.Name, cv)
			}
		} else if cv < 0.40 {
			t.Errorf("%s service CV = %.2f, want variable (>0.40)", app.Name, cv)
		}
	}
}

func TestMeanServiceMatchesSamples(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for _, app := range Apps() {
		var sum float64
		const n = 40000
		for i := 0; i < n; i++ {
			cc, mt := app.SampleRequest(r)
			sum += cc*1000/float64(cpu.NominalMHz) + float64(mt)
		}
		analytic := app.MeanServiceNsAtNominal()
		if mean := sum / n; math.Abs(mean-analytic) > 0.05*analytic {
			t.Errorf("%s: empirical mean service %.0f ns vs analytic %.0f ns",
				app.Name, mean, analytic)
		}
	}
}

func TestAppServiceTimeOrdering(t *testing.T) {
	// moses requests are the longest, masstree/specjbb among the shortest
	// (paper Sec. 5.5: masstree median 240us vs moses median 3.95ms on the
	// real system; relative ordering is what matters here).
	means := map[string]float64{}
	for _, app := range Apps() {
		means[app.Name] = app.MeanServiceNsAtNominal()
	}
	if !(means["moses"] > 5*means["xapian"]) {
		t.Errorf("moses (%.0f) should dwarf xapian (%.0f)", means["moses"], means["xapian"])
	}
	if !(means["specjbb"] < means["masstree"]) {
		t.Errorf("specjbb (%.0f) should be shorter than masstree (%.0f)",
			means["specjbb"], means["masstree"])
	}
}

func TestRateForLoad(t *testing.T) {
	app := Masstree()
	rate := app.RateForLoad(0.5)
	// At 50% load, rate * mean service = 0.5.
	util := rate * app.MeanServiceNsAtNominal() / 1e9
	if math.Abs(util-0.5) > 1e-9 {
		t.Fatalf("utilization = %v, want 0.5", util)
	}
}

func TestSampleRequestPositive(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for _, app := range Apps() {
		for i := 0; i < 1000; i++ {
			cc, mt := app.SampleRequest(r)
			if cc <= 0 {
				t.Fatalf("%s: non-positive compute cycles", app.Name)
			}
			if mt < 0 {
				t.Fatalf("%s: negative memory time", app.Name)
			}
		}
	}
}

func TestPoissonArrivals(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	p := Poisson{RatePerSec: 1000} // mean gap 1 ms
	gaps := make([]float64, 50000)
	for i := range gaps {
		gaps[i] = float64(p.NextGap(r, 0))
	}
	mean, cv := meanCV(gaps)
	if math.Abs(mean-1e6) > 0.03e6 {
		t.Fatalf("mean gap %.0f ns, want ~1e6", mean)
	}
	// Exponential: CV ~ 1.
	if math.Abs(cv-1) > 0.05 {
		t.Fatalf("gap CV %.2f, want ~1", cv)
	}
	// Degenerate rate.
	if g := (Poisson{}).NextGap(r, 0); g != sim.Second {
		t.Fatalf("zero-rate gap = %d", g)
	}
	if g := (Poisson{RatePerSec: math.NaN()}).NextGap(r, 0); g != sim.Second {
		t.Fatalf("NaN-rate gap = %d", g)
	}
}

func TestStepLoad(t *testing.T) {
	s, err := NewStepLoad(
		Phase{Start: 0, RatePerSec: 100},
		Phase{Start: 2 * sim.Second, RatePerSec: 400},
	)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.rateAt(1 * sim.Second); got != 100 {
		t.Fatalf("rate at 1s = %v", got)
	}
	if got := s.rateAt(3 * sim.Second); got != 400 {
		t.Fatalf("rate at 3s = %v", got)
	}
	if _, err := NewStepLoad(); err == nil {
		t.Fatal("empty StepLoad must error")
	}
	if _, err := NewStepLoad(Phase{Start: 5, RatePerSec: 1}); err == nil {
		t.Fatal("StepLoad not starting at 0 must error")
	}
	// Out-of-order phases are sorted.
	s2, err := NewStepLoad(
		Phase{Start: sim.Second, RatePerSec: 2},
		Phase{Start: 0, RatePerSec: 1},
	)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Phases[0].RatePerSec != 1 {
		t.Fatal("phases not sorted")
	}
}

func TestGenerateTraceDeterministic(t *testing.T) {
	app := Masstree()
	t1 := GenerateAtLoad(app, 0.5, 500, 99)
	t2 := GenerateAtLoad(app, 0.5, 500, 99)
	if len(t1.Requests) != 500 {
		t.Fatalf("trace length %d", len(t1.Requests))
	}
	for i := range t1.Requests {
		if t1.Requests[i] != t2.Requests[i] {
			t.Fatalf("traces with same seed differ at %d", i)
		}
	}
	t3 := GenerateAtLoad(app, 0.5, 500, 100)
	same := true
	for i := range t3.Requests {
		if t1.Requests[i] != t3.Requests[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical traces")
	}
	// n <= 0 gives an empty trace.
	for _, n := range []int{0, -1} {
		if tr := GenerateAtLoad(app, 0.5, n, 99); len(tr.Requests) != 0 {
			t.Fatalf("n=%d trace has %d requests, want 0", n, len(tr.Requests))
		}
	}
}

func TestTraceArrivalsMonotone(t *testing.T) {
	tr := GenerateAtLoad(Xapian(), 0.7, 2000, 5)
	var prev sim.Time
	for _, r := range tr.Requests {
		if r.Arrival < prev {
			t.Fatal("arrivals must be non-decreasing")
		}
		prev = r.Arrival
	}
	if tr.Duration() != prev {
		t.Fatalf("Duration = %d, want %d", tr.Duration(), prev)
	}
}

func TestTraceLoadAccuracy(t *testing.T) {
	// The realized load of a generated trace must match the requested load.
	app := Shore()
	load := 0.4
	tr := GenerateAtLoad(app, load, 20000, 17)
	busyNs := 0.0
	for _, r := range tr.Requests {
		busyNs += r.ServiceNs(cpu.NominalMHz)
	}
	realized := busyNs / float64(tr.Duration())
	if math.Abs(realized-load) > 0.05*load {
		t.Fatalf("realized load %.3f, want %.3f", realized, load)
	}
}

// TestLegacyTraceLoads checks Load still reads the legacy single-object
// layout: the whole Trace encoded as one JSON object.
func TestLegacyTraceLoads(t *testing.T) {
	tr := GenerateAtLoad(Moses(), 0.3, 50, 2)
	legacy, err := json.Marshal(tr)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Load(bytes.NewReader(legacy))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, tr) {
		t.Fatal("legacy trace loaded differently")
	}
}

func TestTraceLoadValidation(t *testing.T) {
	for _, c := range []struct {
		why  string
		reqs []Request
	}{
		{"backwards arrivals", []Request{
			{ID: 0, Arrival: 100, ComputeCycles: 10},
			{ID: 1, Arrival: 50, ComputeCycles: 10},
		}},
		{"zero work", []Request{{ID: 0, Arrival: 1, ComputeCycles: 0}}},
	} {
		bad := Trace{App: "x", Requests: c.reqs}
		legacy, err := json.Marshal(bad)
		if err != nil {
			t.Fatal(err)
		}
		var jsonl bytes.Buffer
		if _, err := WriteJSONL(&jsonl, bad.App, bad.Seed, NewTraceSource(bad)); err != nil {
			t.Fatal(err)
		}
		for _, data := range [][]byte{legacy, jsonl.Bytes()} {
			if _, err := Load(bytes.NewReader(data)); err == nil {
				t.Fatalf("%s must fail validation: %s", c.why, data)
			}
		}
	}
	if _, err := Load(bytes.NewBufferString("{")); err == nil {
		t.Fatal("truncated JSON must fail")
	}
}

func TestTraceDescribe(t *testing.T) {
	app := Masstree()
	tr := GenerateAtLoad(app, 0.4, 5000, 23)
	s := tr.Describe(cpu.NominalMHz)
	if s.Requests != 5000 {
		t.Fatalf("requests = %d", s.Requests)
	}
	if math.Abs(s.OfferedLoad-0.4) > 0.05 {
		t.Fatalf("offered load %.3f, want ~0.4", s.OfferedLoad)
	}
	analytic := app.MeanServiceNsAtNominal()
	if math.Abs(s.MeanServiceNs-analytic) > 0.05*analytic {
		t.Fatalf("mean service %.0f vs analytic %.0f", s.MeanServiceNs, analytic)
	}
	if !(s.P50ServiceNs <= s.P95ServiceNs && s.P95ServiceNs <= s.P99ServiceNs) {
		t.Fatal("service percentiles not ordered")
	}
	if s.MemShare < 0.2 || s.MemShare > 0.4 {
		t.Fatalf("memory share %.2f, want near MemFrac %.2f", s.MemShare, app.MemFrac)
	}
	if s.CVService < 0.05 || s.CVService > 0.3 {
		t.Fatalf("cv %.2f implausible for masstree", s.CVService)
	}
	// Percentiles follow the repo's one rank rule (stats.NearestRank) on
	// even- and odd-length traces alike.
	for _, n := range []int{100, 101} {
		tr := GenerateAtLoad(app, 0.4, n, 5)
		s := tr.Describe(cpu.NominalMHz)
		services := make([]float64, n)
		for i, r := range tr.Requests {
			services[i] = r.ServiceNs(cpu.NominalMHz)
		}
		got := []float64{s.P50ServiceNs, s.P95ServiceNs, s.P99ServiceNs}
		for i, q := range []float64{0.50, 0.95, 0.99} {
			if want := stats.Percentile(services, q); got[i] != want {
				t.Fatalf("n=%d: p%v = %v, want nearest-rank %v", n, q*100, got[i], want)
			}
		}
	}
	// Empty trace: all zeros, no panic.
	var empty Trace
	if es := empty.Describe(cpu.NominalMHz); es.Requests != 0 || es.MeanServiceNs != 0 {
		t.Fatalf("empty describe = %+v", es)
	}
}

func TestRequestServiceNs(t *testing.T) {
	r := Request{ComputeCycles: 2400, MemTime: 500}
	// 2400 cycles at 2400 MHz = 1 us; plus 500 ns memory.
	if got := r.ServiceNs(2400); math.Abs(got-1500) > 1e-9 {
		t.Fatalf("ServiceNs = %v, want 1500", got)
	}
	// Doubling frequency halves only the compute part.
	if got := r.ServiceNs(4800); math.Abs(got-1000) > 1e-9 {
		t.Fatalf("ServiceNs@2x = %v, want 1000", got)
	}
}

func TestBatchAppThroughputScaling(t *testing.T) {
	g := cpu.DefaultGrid()
	for _, b := range BatchPool() {
		prev := 0.0
		for _, f := range g.Steps() {
			tp := b.UnitsPerSec(f)
			if tp <= prev {
				t.Fatalf("%s throughput must increase with f", b.Name)
			}
			prev = tp
		}
	}
	// Compute-bound apps scale better with frequency than memory-bound.
	namd, _ := findBatch("namd")
	mcf, _ := findBatch("mcf")
	namdGain := namd.UnitsPerSec(3400) / namd.UnitsPerSec(800)
	mcfGain := mcf.UnitsPerSec(3400) / mcf.UnitsPerSec(800)
	if namdGain <= mcfGain {
		t.Fatalf("namd gain %.2f should exceed mcf gain %.2f", namdGain, mcfGain)
	}
}

func findBatch(name string) (BatchApp, bool) {
	for _, b := range BatchPool() {
		if b.Name == name {
			return b, true
		}
	}
	return BatchApp{}, false
}

func TestBatchOptimalTPW(t *testing.T) {
	g := cpu.DefaultGrid()
	m := cpu.DefaultPowerModel()
	for _, b := range BatchPool() {
		f := b.OptimalTPWFreq(g, m)
		if g.Index(f) < 0 {
			t.Fatalf("%s TPW frequency %d not on grid", b.Name, f)
		}
		if f > cpu.NominalMHz {
			t.Fatalf("%s TPW frequency %d above nominal (TDP rule)", b.Name, f)
		}
		// It must actually be optimal among allowed steps.
		best := b.UnitsPerSec(f) / b.PowerW(f, m)
		for _, fr := range g.Steps() {
			if fr > cpu.NominalMHz {
				break
			}
			if tpw := b.UnitsPerSec(fr) / b.PowerW(fr, m); tpw > best+1e-12 {
				t.Fatalf("%s: %d MHz has better TPW than chosen %d", b.Name, fr, f)
			}
		}
	}
}

func TestMixes(t *testing.T) {
	m1 := Mixes(20, 6, 42)
	m2 := Mixes(20, 6, 42)
	if len(m1) != 20 {
		t.Fatalf("mix count %d", len(m1))
	}
	for i := range m1 {
		if len(m1[i]) != 6 {
			t.Fatalf("mix %d size %d", i, len(m1[i]))
		}
		seen := map[string]bool{}
		for j, b := range m1[i] {
			if seen[b.Name] {
				t.Fatalf("mix %d has duplicate %s", i, b.Name)
			}
			seen[b.Name] = true
			if m1[i][j].Name != m2[i][j].Name {
				t.Fatal("mixes not deterministic")
			}
		}
	}
}
