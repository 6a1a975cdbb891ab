package cpu

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"rubik/internal/sim"
)

func TestDefaultGrid(t *testing.T) {
	g := DefaultGrid()
	if g.Len() != 14 {
		t.Fatalf("grid has %d steps, want 14 (0.8-3.4 GHz in 200 MHz steps)", g.Len())
	}
	if g.Min() != 800 || g.Max() != 3400 {
		t.Fatalf("grid range [%d, %d]", g.Min(), g.Max())
	}
	if g.Index(NominalMHz) < 0 {
		t.Fatal("nominal frequency must be on the grid")
	}
	if g.Index(900) != -1 {
		t.Fatal("900 MHz must not be on the grid")
	}
}

func TestNewGridValidation(t *testing.T) {
	if _, err := NewGrid(nil); err == nil {
		t.Fatal("empty grid must error")
	}
	if _, err := NewGrid([]int{100, 100}); err == nil {
		t.Fatal("non-ascending grid must error")
	}
	for _, steps := range [][]int{{0, 800}, {-200, 800}, {-400}} {
		if _, err := NewGrid(steps); err == nil {
			t.Fatalf("non-positive step in %v must error", steps)
		}
	}
	g, err := NewGrid([]int{1000, 2000})
	if err != nil {
		t.Fatal(err)
	}
	if g.Step(1) != 2000 {
		t.Fatalf("Step(1) = %d", g.Step(1))
	}
}

func TestClampUpDown(t *testing.T) {
	g := DefaultGrid()
	cases := []struct {
		f  float64
		up int
	}{
		{0, 800},
		{799, 800},
		{800, 800},
		{801, 1000},
		{2399.5, 2400},
		{2400, 2400},
		{3400, 3400},
		{9999, 3400},
		{-1, 800},
		{math.Inf(-1), 800},
		{math.Inf(1), 3400},
		{math.NaN(), 3400},
	}
	for _, c := range cases {
		if got := g.ClampUp(c.f); got != c.up {
			t.Errorf("ClampUp(%v) = %d, want %d", c.f, got, c.up)
		}
	}
}

func TestClampUpNeverViolates(t *testing.T) {
	g := DefaultGrid()
	f := func(raw float64) bool {
		want := math.Mod(math.Abs(raw), 4000)
		got := g.ClampUp(want)
		return float64(got) >= want || got == g.Max()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestVoltageMap(t *testing.T) {
	if v := Voltage(800); v != 0.65 {
		t.Fatalf("V(800) = %v", v)
	}
	if v := Voltage(3400); v != 1.15 {
		t.Fatalf("V(3400) = %v", v)
	}
	if v := Voltage(100); v != 0.65 {
		t.Fatalf("V below range = %v", v)
	}
	if v := Voltage(9000); v != 1.15 {
		t.Fatalf("V above range = %v", v)
	}
	mid := Voltage(2100) // exact midpoint of 800..3400
	if math.Abs(mid-0.9) > 1e-12 {
		t.Fatalf("V(2100) = %v, want 0.9", mid)
	}
	// Monotonic over the grid.
	g := DefaultGrid()
	for i := 1; i < g.Len(); i++ {
		if Voltage(g.Step(i)) <= Voltage(g.Step(i-1)) {
			t.Fatal("voltage must increase with frequency")
		}
	}
}

func TestPowerModelShape(t *testing.T) {
	m := DefaultPowerModel()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	g := DefaultGrid()
	prev := 0.0
	for _, f := range g.Steps() {
		p := m.ActivePower(f)
		if p <= prev {
			t.Fatalf("power must increase with frequency: P(%d)=%v, prev=%v", f, p, prev)
		}
		prev = p
	}
	// Superlinearity: stepping from min to max should cost more than the
	// frequency ratio alone (V^2 scaling).
	ratio := m.ActivePower(3400) / m.ActivePower(800)
	if ratio < float64(3400)/800 {
		t.Fatalf("power not superlinear in f: ratio %.2f", ratio)
	}
	// TDP sanity: 6 cores at max must be near the 65 W TDP of Table 2.
	tdp := 6 * m.ActivePower(3400)
	if tdp < 45 || tdp > 80 {
		t.Fatalf("6-core max power %.1f W, want near 65 W TDP", tdp)
	}
	if m.SleepPower() >= m.ActivePower(800) {
		t.Fatal("sleep power must be below min active power")
	}
}

// TestActivePowerMonotone pins the one shape the capping allocators rely
// on: over any grid NewGrid or DefaultGrid builds, ActivePower never
// decreases with the step index and is never NaN, for every model
// Validate accepts — extreme coefficients included, where products
// overflow to +Inf or underflow to 0.
func TestActivePowerMonotone(t *testing.T) {
	big, tiny := math.MaxFloat64, math.SmallestNonzeroFloat64
	scales := []float64{tiny, 1e-300, 0.0023, 1, 1e300, big}
	leaks := []float64{0, tiny, 0.4, 1e300, big}
	var models []PowerModel
	for _, d := range scales {
		for _, a := range scales {
			for _, l := range leaks {
				models = append(models, PowerModel{DynCoeff: d, LeakCoeff: l, ActivityFactor: a})
			}
		}
	}
	r := rand.New(rand.NewSource(29))
	logUniform := func() float64 { return math.Exp(r.Float64()*1400 - 700) }
	for i := 0; i < 200; i++ {
		models = append(models, PowerModel{DynCoeff: logUniform(), LeakCoeff: logUniform(), ActivityFactor: logUniform()})
	}

	// Every integer MHz across and around the voltage ramp, the paper
	// grid, and random sparse grids reaching the largest int.
	dense := make([]int, 4000)
	for i := range dense {
		dense[i] = i + 1
	}
	grids := []Grid{DefaultGrid()}
	for _, steps := range [][]int{dense, {1, MinMHz, MaxMHz, math.MaxInt}} {
		g, err := NewGrid(steps)
		if err != nil {
			t.Fatal(err)
		}
		grids = append(grids, g)
	}
	for i := 0; i < 50; i++ {
		set := map[int]bool{}
		for n := 1 + r.Intn(20); len(set) < n; {
			if r.Intn(4) == 0 {
				set[1+r.Intn(math.MaxInt-1)] = true
			} else {
				set[1+r.Intn(2*MaxMHz)] = true
			}
		}
		var steps []int
		for f := range set {
			steps = append(steps, f)
		}
		sort.Ints(steps)
		g, err := NewGrid(steps)
		if err != nil {
			t.Fatal(err)
		}
		grids = append(grids, g)
	}

	for _, m := range models {
		if err := m.Validate(); err != nil {
			t.Fatal(err)
		}
		for _, g := range grids {
			prev := math.Inf(-1)
			for i := 0; i < g.Len(); i++ {
				p := m.ActivePower(g.Step(i))
				if math.IsNaN(p) || p < prev {
					t.Fatalf("model %+v: P(%d MHz) = %v after %v at the step below", m, g.Step(i), p, prev)
				}
				prev = p
			}
		}
	}
}

func TestPowerModelValidate(t *testing.T) {
	if err := DefaultPowerModel().Validate(); err != nil {
		t.Fatalf("default model rejected: %v", err)
	}
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name string
		edit func(*PowerModel)
	}{
		{"negative DynCoeff", func(m *PowerModel) { m.DynCoeff = -1 }},
		{"NaN DynCoeff", func(m *PowerModel) { m.DynCoeff = nan }},
		{"+Inf DynCoeff", func(m *PowerModel) { m.DynCoeff = inf }},
		{"NaN LeakCoeff", func(m *PowerModel) { m.LeakCoeff = nan }},
		{"+Inf LeakCoeff", func(m *PowerModel) { m.LeakCoeff = inf }},
		{"NaN SleepW", func(m *PowerModel) { m.SleepW = nan }},
		{"+Inf SleepW", func(m *PowerModel) { m.SleepW = inf }},
		{"NaN ActivityFactor", func(m *PowerModel) { m.ActivityFactor = nan }},
		{"+Inf ActivityFactor", func(m *PowerModel) { m.ActivityFactor = inf }},
	}
	for _, c := range cases {
		m := DefaultPowerModel()
		c.edit(&m)
		if err := m.Validate(); err == nil {
			t.Errorf("%s: invalid model %+v passed validation", c.name, m)
		}
	}
}

func TestSystemPower(t *testing.T) {
	s := DefaultSystemPower()
	idle := s.NonCorePower(0)
	busy := s.NonCorePower(6)
	if idle <= 0 || busy <= idle {
		t.Fatalf("non-core power: idle %v, busy %v", idle, busy)
	}
	if s.NonCorePower(-3) != idle {
		t.Fatal("negative active cores must clamp to idle")
	}
	// Idle floor must be a large fraction of busy power — the
	// non-energy-proportionality that motivates colocation.
	if idle/busy < 0.5 {
		t.Fatalf("idle/busy = %.2f, expected non-energy-proportional (>0.5)", idle/busy)
	}
}

func TestEnergyMeter(t *testing.T) {
	g := DefaultGrid()
	m := NewEnergyMeter(g, DefaultPowerModel())
	m.SetFreq(g.Index(2400), 2400)
	m.AccrueActive(sim.Second)
	wantJ := DefaultPowerModel().ActivePower(2400)
	if math.Abs(m.ActiveEnergyJ()-wantJ) > 1e-9 {
		t.Fatalf("1s at 2.4GHz = %v J, want %v", m.ActiveEnergyJ(), wantJ)
	}
	m.AccrueIdle(2 * sim.Second)
	wantIdle := 2 * DefaultPowerModel().SleepPower()
	if math.Abs(m.IdleEnergyJ()-wantIdle) > 1e-9 {
		t.Fatalf("idle energy %v, want %v", m.IdleEnergyJ(), wantIdle)
	}
	if m.TotalEnergyJ() != m.ActiveEnergyJ()+m.IdleEnergyJ() {
		t.Fatal("total != active + idle")
	}
	// Negative/zero durations are ignored.
	m.AccrueActive(-5)
	m.AccrueIdle(0)
	if m.ActiveNs() != sim.Second || m.IdleNs() != 2*sim.Second {
		t.Fatalf("time accounting wrong: %v active, %v idle", m.ActiveNs(), m.IdleNs())
	}
}

// The meter charges the model's ActivePower at the frequency last set,
// bit for bit, so evaluating it once per frequency change charges what
// evaluating it on every accrual charged.
func TestEnergyMeterWattsMatchModel(t *testing.T) {
	uneven, err := NewGrid([]int{1, MinMHz, 1500, NominalMHz, MaxMHz, 5000, math.MaxInt})
	if err != nil {
		t.Fatal(err)
	}
	models := []PowerModel{DefaultPowerModel(),
		{DynCoeff: 1e-300, LeakCoeff: 1e300, ActivityFactor: 0.37, SleepW: 0.1},
		{DynCoeff: math.MaxFloat64, LeakCoeff: 0, ActivityFactor: 1e-3, SleepW: 2}}
	for _, g := range []Grid{DefaultGrid(), uneven} {
		for _, model := range models {
			m := NewEnergyMeter(g, model)
			if got, want := m.ActiveWatts(), model.ActivePower(g.Min()); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("model %+v: new meter charges %v W, lowest step %v W", model, got, want)
			}
			wantJ := 0.0
			for i := g.Len() - 1; i >= 0; i-- {
				f := g.Step(i)
				m.SetFreq(i, f)
				w := model.ActivePower(f)
				if got := m.ActiveWatts(); math.Float64bits(got) != math.Float64bits(w) {
					t.Fatalf("model %+v step %d MHz: meter %v W, model %v W", model, f, got, w)
				}
				m.AccrueActive(1234567)
				wantJ += w * float64(1234567) / 1e9
				if got := m.ActiveEnergyJ(); math.Float64bits(got) != math.Float64bits(wantJ) {
					t.Fatalf("model %+v step %d MHz: accrued %v J, want %v J", model, f, got, wantJ)
				}
			}
			for i, r := range m.Residency() {
				if r != 1/float64(g.Len()) {
					t.Fatalf("model %+v: residency[%d] = %v, want 1/%d", model, i, r, g.Len())
				}
			}
		}
	}
}

func TestEnergyMeterResidency(t *testing.T) {
	g := DefaultGrid()
	m := NewEnergyMeter(g, DefaultPowerModel())
	if r := m.Residency(); len(r) != g.Len() {
		t.Fatalf("residency length %d", len(r))
	}
	m.SetFreq(g.Index(800), 800)
	m.AccrueActive(3 * sim.Second)
	m.SetFreq(g.Index(3400), 3400)
	m.AccrueActive(1 * sim.Second)
	r := m.Residency()
	if math.Abs(r[0]-0.75) > 1e-12 {
		t.Fatalf("residency[800] = %v, want 0.75", r[0])
	}
	if math.Abs(r[g.Len()-1]-0.25) > 1e-12 {
		t.Fatalf("residency[3400] = %v, want 0.25", r[g.Len()-1])
	}
	var sum float64
	for _, v := range r {
		sum += v
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("residency sums to %v", sum)
	}
}

func TestSolveLinear(t *testing.T) {
	a := [][]float64{{2, 1}, {1, 3}}
	b := []float64{5, 10}
	x, err := SolveLinear(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-1) > 1e-9 || math.Abs(x[1]-3) > 1e-9 {
		t.Fatalf("x = %v, want [1 3]", x)
	}
	if _, err := SolveLinear([][]float64{{0, 0}, {0, 0}}, []float64{1, 1}); err == nil {
		t.Fatal("singular system must error")
	}
	if _, err := SolveLinear(nil, nil); err == nil {
		t.Fatal("empty system must error")
	}
}

func TestLeastSquaresRecoversCoefficients(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	trueBeta := []float64{3.5, -2.0, 0.7}
	var x [][]float64
	var y []float64
	for i := 0; i < 500; i++ {
		row := []float64{1, r.Float64() * 10, r.Float64() * 5}
		x = append(x, row)
		y = append(y, Predict(trueBeta, row)+r.NormFloat64()*0.01)
	}
	beta, err := LeastSquares(x, y)
	if err != nil {
		t.Fatal(err)
	}
	for i := range trueBeta {
		if math.Abs(beta[i]-trueBeta[i]) > 0.05 {
			t.Fatalf("beta[%d] = %v, want %v", i, beta[i], trueBeta[i])
		}
	}
}

func TestLeastSquaresErrors(t *testing.T) {
	if _, err := LeastSquares(nil, nil); err == nil {
		t.Fatal("empty input must error")
	}
	if _, err := LeastSquares([][]float64{{1}}, []float64{1, 2}); err == nil {
		t.Fatal("dimension mismatch must error")
	}
	if _, err := LeastSquares([][]float64{{1, 2}, {1}}, []float64{1, 2}); err == nil {
		t.Fatal("ragged matrix must error")
	}
}

func TestKFoldCV(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	var x [][]float64
	var y []float64
	for i := 0; i < 200; i++ {
		row := []float64{1, r.Float64() * 10}
		x = append(x, row)
		y = append(y, 2+3*row[1]+r.NormFloat64()*0.1)
	}
	res, err := KFoldCV(x, y, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanAbsRelErr > 0.05 {
		t.Fatalf("mean error %v too large for near-linear data", res.MeanAbsRelErr)
	}
	if res.MaxAbsRelErr < res.MeanAbsRelErr {
		t.Fatal("max error below mean error")
	}
	if res.Folds != 5 {
		t.Fatalf("folds = %d", res.Folds)
	}
	if _, err := KFoldCV(x, y, 1); err == nil {
		t.Fatal("k=1 must error")
	}
	if _, err := KFoldCV(x, y, len(x)+1); err == nil {
		t.Fatal("k>n must error")
	}
}
