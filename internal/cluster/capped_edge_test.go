package cluster

import (
	"math"
	"math/rand"
	"testing"

	"rubik/internal/capping"
	"rubik/internal/cpu"
	"rubik/internal/queueing"
	"rubik/internal/sim"
	"rubik/internal/workload"
)

// TestAttachOffGridInitialClamps is the regression pin for the attach
// seeding bug: a core whose CurrentMHz is absent from the domain grid
// seeded DesiredIdx = -1 with no fallback, and the initial allocation
// round indexed power[-1] and panicked. attach must clamp up exactly as
// decide does. The public path guards this today (NewCore rejects an
// off-grid InitialMHz against the same grid), so the pin is white-box:
// a domain grid coarser than the core grid reproduces the mismatch.
func TestAttachOffGridInitialClamps(t *testing.T) {
	eng := sim.NewEngine()
	domGrid, err := cpu.NewGrid([]int{800, 1600, 2400, 3200})
	if err != nil {
		t.Fatal(err)
	}
	model := cpu.DefaultPowerModel()
	const capW = 9.0 // binding for two cores near the middle of the curve
	dom, err := capping.NewDomain(domGrid, model, capW, 2)
	if err != nil {
		t.Fatal(err)
	}
	ctl := &domainCtl{
		eng:     eng,
		dom:     dom,
		alloc:   capping.Waterfill{},
		cores:   make([]*queueing.Core, 2),
		demands: make([]capping.Demand, 2),
		grants:  make([]int, 2),
		granted: make([]int, 2),
	}
	ctl.stats = capping.DomainStats{CapW: capW, Allocator: "waterfill"}

	qcfg := queueing.DefaultConfig()
	qcfg.InitialMHz = 2000 // on the core grid, absent from the domain grid
	cores := make([]*queueing.Core, 2)
	for i := range cores {
		c, err := queueing.NewCore(eng, queueing.FixedPolicy{MHz: 2000}, qcfg)
		if err != nil {
			t.Fatal(err)
		}
		cores[i] = c
	}

	ctl.attach(cores) // panicked (power[-1]) before the clamp fix

	wantIdx := domGrid.Index(domGrid.ClampUp(2000))
	if wantIdx < 0 {
		t.Fatal("clamped step must be on the domain grid")
	}
	for m, dem := range ctl.demands {
		if dem.DesiredIdx != wantIdx {
			t.Fatalf("member %d seeded DesiredIdx %d, want clamped %d", m, dem.DesiredIdx, wantIdx)
		}
	}
	if sum := dom.PowerOf(ctl.grants); sum > capW+1e-9 {
		t.Fatalf("initial round exceeded the binding cap: Σ=%v W > %v W", sum, capW)
	}
	if ctl.stats.Rounds != 1 {
		t.Fatalf("initial round count = %d, want 1", ctl.stats.Rounds)
	}
}

// TestCappedOffGridInitialMHzRejected pins the public-API seam in front
// of the attach clamp: an off-grid InitialMHz under a binding cap must
// surface as a clean config error from core validation — never a panic
// out of the capping wiring.
func TestCappedOffGridInitialMHzRejected(t *testing.T) {
	cfg := rubikClusterConfig(t, 2, 500_000)
	cfg.CapW = 9
	cfg.Core.InitialMHz = 999 // not a grid step
	src := workload.NewLoadSource(workload.Masstree(), 0.5, 100, 1)
	if _, err := RunSource(src, cfg); err == nil {
		t.Fatal("off-grid InitialMHz accepted under a binding cap")
	}
}

// TestCappedConfigProperties is the property sweep over capped cluster
// configs: 1–5 cores under caps at exactly n·P_min, binding, generous and
// +Inf — no run may panic, a feasible domain must hold Σ granted power
// within its cap at all times (PeakPowerW is the running max), and an
// infeasible one must account CapExceededNs over effectively the whole
// run.
func TestCappedConfigProperties(t *testing.T) {
	app := workload.Masstree()
	grid := cpu.DefaultGrid()
	model := cpu.DefaultPowerModel()
	minW := model.ActivePower(grid.Min())
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 24; trial++ {
		cores := 1 + r.Intn(5)
		// This draw used to pick a power-domain shape; it stays so every
		// later draw, and so every trial's inputs, are unchanged.
		r.Intn(3)
		var capW float64
		switch r.Intn(4) {
		case 0:
			capW = float64(cores) * minW // exactly n·P_min: feasible boundary
		case 1:
			capW = math.Inf(1)
		case 2:
			capW = float64(cores) * (minW + r.Float64()*8)
		default:
			capW = float64(cores) * minW * (0.2 + 0.6*r.Float64()) // below the floor
		}

		cfg := rubikClusterConfig(t, cores, 500_000)
		cfg.CapW = capW
		alloc, err := capping.ByName(capping.Names()[r.Intn(len(capping.Names()))])
		if err != nil {
			t.Fatal(err)
		}
		cfg.Allocator = alloc
		src := workload.NewLoadSource(app, 0.4*float64(cores), 400, int64(trial))
		res, err := RunSource(src, cfg)
		if err != nil {
			t.Fatalf("trial %d (cap %v): %v", trial, capW, err)
		}
		ds := res.Capping
		if ds == nil {
			t.Fatalf("trial %d: capped run reported no domain", trial)
		}
		feasible := float64(cores)*minW <= capW
		if feasible && ds.PeakPowerW > capW*(1+1e-9) {
			t.Fatalf("trial %d: peak %v W over cap %v W (%s)",
				trial, ds.PeakPowerW, capW, alloc.Name())
		}
		if feasible && ds.CapExceededNs != 0 {
			t.Fatalf("trial %d: feasible domain accounted CapExceededNs=%d",
				trial, ds.CapExceededNs)
		}
		if !feasible {
			if ds.CapExceededNs == 0 {
				t.Fatalf("trial %d: infeasible domain accounted no excess time", trial)
			}
			if res.EndTime > 0 && ds.CapExceededNs < res.EndTime/2 {
				t.Fatalf("trial %d: infeasible domain exceeded only %d of %d ns",
					trial, ds.CapExceededNs, res.EndTime)
			}
		}
	}

	// Hostile budgets: a NaN or negative cap must be rejected, not run
	// under a budget every comparison silently ignores.
	for _, capW := range []float64{math.NaN(), -1} {
		cfg := rubikClusterConfig(t, 2, 500_000)
		cfg.CapW = capW
		if res, err := RunSource(workload.NewLoadSource(app, 0.8, 50, 1), cfg); err == nil {
			t.Errorf("cap %v W accepted: %+v", capW, res.Capping)
		}
	}
}
