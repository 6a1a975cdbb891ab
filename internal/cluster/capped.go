package cluster

import (
	"fmt"

	"rubik/internal/capping"
	"rubik/internal/queueing"
	"rubik/internal/sim"
)

// domainCtl runs one power domain's allocation rounds: it is every member
// core's Grant hook, so it sees each policy decision, reconciles the
// domain's desired frequencies through the allocator, actuates sibling
// grant changes, and keeps the time-weighted budget accounting. Policies
// are called directly by their cores; each member's Grant hook passes its
// policy's SlackReporter, if it is one. All slices are sized at
// construction, so a steady-state decision performs zero allocations.
//
// Rounds run when a member's desired grid step changes (the initial round
// runs at t=0 over every member's InitialMHz). A decision that repeats the
// member's previous desired step is O(1): demands are unchanged, so the
// previous grants still satisfy the budget. The deciding member's slack
// estimate is refreshed when its round runs; siblings keep the estimate
// from their own last change — slack steers *which* core donates, never
// whether the budget holds, so staleness cannot break the cap.
type domainCtl struct {
	eng   *sim.Engine
	dom   *capping.Domain
	alloc capping.Allocator

	cores   []*queueing.Core // member cores, attached after buildCores
	demands []capping.Demand
	grants  []int
	granted []int // last actuated grant per member

	stats    capping.DomainStats
	lastT    sim.Time
	curSumW  float64
	powerWNs float64 // time integral of granted power (W * ns)
	exceed   bool

	// Epoch demand integral (hierarchical fleets): time-weighted Σ desired
	// power since the last barrier, accounted in fields of its own so
	// reporting never perturbs the granted-power spans above — a
	// hierarchical run whose caps never change stays bit-identical to the
	// flat run, DomainStats included.
	demEpochT sim.Time
	demLastT  sim.Time
	demWNs    float64 // time integral of desired power (W * ns)
	curDesW   float64
}

// decide is the per-decision entry point, the body of member's Grant
// hook: its policy asked for desiredMHz. It returns the member's granted
// frequency in MHz (which the member core actuates itself) and actuates
// any sibling grant changes directly. The slack reporter is only
// consulted when a full allocation round runs — predicting slack walks
// the member's queue, and a decision that repeats the previous desired
// step resolves O(1) without it.
func (ctl *domainCtl) decide(member int, desiredMHz int, slack queueing.SlackReporter, v queueing.View) int {
	grid := ctl.dom.Grid()
	dIdx := grid.Index(desiredMHz)
	if dIdx < 0 {
		dIdx = grid.Index(grid.ClampUp(float64(desiredMHz)))
	}
	if dIdx == ctl.demands[member].DesiredIdx {
		// Demand unchanged: the previous allocation still holds.
		return grid.Step(ctl.granted[member])
	}
	ctl.accrueDemand()
	ctl.curDesW += ctl.dom.PowerAt(dIdx) - ctl.dom.PowerAt(ctl.demands[member].DesiredIdx)
	ctl.demands[member].DesiredIdx = dIdx
	if slack != nil {
		ctl.demands[member].SlackNs = slack.PredictedSlackNs(v)
	}
	ctl.reallocate()
	return grid.Step(ctl.granted[member])
}

// reallocate runs one allocation round and actuates every changed grant,
// the deciding member's included — its core then applies the granted
// frequency again, which is a no-op (ApplyFreq is idempotent
// for an unchanged target, and switchPending guards the latency path).
func (ctl *domainCtl) reallocate() {
	ctl.accrueStats()
	ctl.alloc.Allocate(ctl.dom, ctl.demands, ctl.grants)
	ctl.stats.Rounds++
	throttled := false
	grid := ctl.dom.Grid()
	for m, g := range ctl.grants {
		if g < ctl.demands[m].DesiredIdx {
			throttled = true
		}
		if g == ctl.granted[m] {
			continue
		}
		ctl.granted[m] = g
		if c := ctl.cores[m]; c != nil {
			// Bring the sibling's progress up to now before retargeting:
			// ApplyFreq with zero transition latency switches immediately,
			// and accrued spans must never straddle a frequency change.
			c.Accrue()
			c.ApplyFreq(grid.Step(g))
		}
	}
	if throttled {
		ctl.stats.ThrottleEvents++
	}
	sum := ctl.dom.PowerOf(ctl.grants)
	ctl.curSumW = sum
	ctl.exceed = sum > ctl.dom.CapW()
	if sum > ctl.stats.PeakPowerW {
		ctl.stats.PeakPowerW = sum
	}
}

// accrueStats closes the accounting span ending now.
func (ctl *domainCtl) accrueStats() {
	now := ctl.eng.Now()
	dt := now - ctl.lastT
	if dt <= 0 {
		return
	}
	ctl.lastT = now
	ctl.powerWNs += ctl.curSumW * float64(dt)
	if ctl.exceed {
		ctl.stats.CapExceededNs += dt
	}
}

// accrueDemand closes the desired-power span ending now.
func (ctl *domainCtl) accrueDemand() {
	now := ctl.eng.Now()
	if dt := now - ctl.demLastT; dt > 0 {
		ctl.demWNs += ctl.curDesW * float64(dt)
		ctl.demLastT = now
	}
}

// epochReport closes the demand window ending at the barrier time upTo
// and returns the window's time-weighted mean desired power — the
// socket's demand signal to the budget hierarchy. upTo may be past the
// last fired event (the barrier is a wall, not an event); the next window
// starts there.
func (ctl *domainCtl) epochReport(upTo sim.Time) float64 {
	if dt := upTo - ctl.demLastT; dt > 0 {
		ctl.demWNs += ctl.curDesW * float64(dt)
		ctl.demLastT = upTo
	}
	mean := ctl.curDesW
	if span := upTo - ctl.demEpochT; span > 0 {
		mean = ctl.demWNs / float64(span)
	}
	ctl.demWNs = 0
	ctl.demEpochT = upTo
	return mean
}

// applyCap retargets the domain budget and immediately re-allocates under
// it. It runs as an engine event at an epoch boundary, so the accounting
// spans split exactly there. An unchanged cap is a strict no-op — the
// degenerate hierarchy (every barrier re-deriving the flat cap) must not
// perturb the run. The hierarchy only grants positive watts, so a
// non-positive cap cannot reach SetCapW here.
func (ctl *domainCtl) applyCap(w float64) {
	if w == ctl.dom.CapW() {
		return
	}
	if err := ctl.dom.SetCapW(w); err != nil {
		return
	}
	ctl.stats.CapW = w
	ctl.reallocate()
}

// finalize closes the trailing span and returns the domain stats.
func (ctl *domainCtl) finalize() capping.DomainStats {
	ctl.accrueStats()
	if end := ctl.eng.Now(); end > 0 {
		ctl.stats.AvgPowerW = ctl.powerWNs / float64(end)
	}
	return ctl.stats
}

// wireCapping validates the capping configuration and, when a cap is set,
// builds the domain controller every core's decisions flow through: the
// socket, one budget of CapW spanning all cfg.Cores cores. It returns nil
// when CapW is 0 (unset): no core gets a Grant hook and the run is
// byte-identical to an uncapped cluster. Call attach with the built cores
// afterwards.
//
// Fleet runs wire capping through this exact path, once per socket, each
// with its own Domain (and allocator scratch) on its own engine — so
// capped fleets stay shared-nothing across shards, and a capped socket's
// accounting is identical to the same socket run standalone.
func wireCapping(eng *sim.Engine, cfg Config) (*domainCtl, error) {
	if cfg.CapW == 0 {
		return nil, nil
	}
	if !(cfg.CapW > 0) {
		return nil, fmt.Errorf("cluster: power cap must be positive, got %v W", cfg.CapW)
	}
	alloc := cfg.Allocator
	if alloc == nil {
		alloc = capping.Waterfill{}
	}
	dom, err := capping.NewDomain(cfg.Core.Grid, cfg.Core.Power, cfg.CapW, cfg.Cores)
	if err != nil {
		return nil, err
	}
	members := make([]int, cfg.Cores)
	for i := range members {
		members[i] = i
	}
	ctl := &domainCtl{
		eng:     eng,
		dom:     dom,
		alloc:   alloc,
		cores:   make([]*queueing.Core, cfg.Cores),
		demands: make([]capping.Demand, cfg.Cores),
		grants:  make([]int, cfg.Cores),
		granted: make([]int, cfg.Cores),
		stats: capping.DomainStats{
			Cores:     members,
			CapW:      cfg.CapW,
			Allocator: alloc.Name(),
		},
	}
	return ctl, nil
}

// attach hands the domain its cores and runs the initial allocation round
// at t=0 over the cores' initial frequencies, so the cap holds from the
// first instant (with a binding cap, cores start throttled rather than
// briefly overshooting at InitialMHz). A no-op on a nil (uncapped) ctl.
func (ctl *domainCtl) attach(cores []*queueing.Core) {
	if ctl == nil {
		return
	}
	grid := ctl.dom.Grid()
	for m, c := range cores {
		ctl.cores[m] = c
		dIdx := grid.Index(c.CurrentMHz())
		if dIdx < 0 {
			// Off-grid initial frequency: clamp up exactly as decide
			// does, instead of letting -1 flow into the power curve.
			dIdx = grid.Index(grid.ClampUp(float64(c.CurrentMHz())))
		}
		ctl.demands[m] = capping.Demand{DesiredIdx: dIdx}
		ctl.granted[m] = dIdx
		ctl.curDesW += ctl.dom.PowerAt(dIdx)
	}
	ctl.reallocate()
}

// domainStats finalizes the domain's accounting as Result.Capping's one
// entry (nil-safe; nil when the run was uncapped).
func (ctl *domainCtl) domainStats() []capping.DomainStats {
	if ctl == nil {
		return nil
	}
	return []capping.DomainStats{ctl.finalize()}
}
