package coloc

import (
	"fmt"
	"math"

	"rubik/internal/cpu"
	"rubik/internal/queueing"
	"rubik/internal/sim"
	"rubik/internal/workload"
)

// HWObjective selects what the hardware DVFS allocator maximizes.
type HWObjective int

const (
	// HWThroughput is HW-T: maximize aggregate instruction throughput
	// subject to the TDP (paper Sec. 7, modeled after Turbo-Boost-style
	// coordinated DVFS).
	HWThroughput HWObjective = iota
	// HWThroughputPerWatt is HW-TPW: maximize aggregate throughput/watt.
	HWThroughputPerWatt
)

// occupantCurve characterizes what a core is currently executing: its
// achievable compute-cycle throughput and power at each frequency step.
// Both LC requests and batch units reduce to (compute cycles, memory time),
// so the same two functions cover both occupants.
type occupantCurve struct {
	computeCyclesPerUnit float64
	memNsPerUnit         float64
	activity             float64
}

// rate returns the compute-cycle throughput (cycles/s) at fMHz: the
// fraction of time spent computing times the clock rate. Memory-bound
// occupants plateau; compute-bound occupants scale with f.
func (o occupantCurve) rate(fMHz int) float64 {
	computeNs := o.computeCyclesPerUnit * 1000 / float64(fMHz)
	share := computeNs / (computeNs + o.memNsPerUnit)
	return share * float64(fMHz) * 1e6
}

func (o occupantCurve) power(fMHz int, m cpu.PowerModel) float64 {
	m.ActivityFactor = o.activity
	return m.ActivePower(fMHz)
}

// allocate picks one frequency per core maximizing the objective under the
// core power budget, starting from per-core floor steps (nil floors = grid
// minimum). Both allocators are greedy step-up climbers, which is how
// hardware governors behave between epochs. The floors model the
// utilization feedback every real governor has: a core whose occupant
// cannot sustain its offered load gets boosted regardless of the efficiency
// objective — hardware DVFS is QoS-blind, not stability-blind.
func allocate(curves []occupantCurve, floors []int, grid cpu.Grid, model cpu.PowerModel, tdpW float64, obj HWObjective) []int {
	n := len(curves)
	idx := make([]int, n)
	powers := make([]float64, n)
	rates := make([]float64, n)
	var totalP, totalR float64
	for i, c := range curves {
		if floors != nil && floors[i] > 0 && floors[i] < grid.Len() {
			idx[i] = floors[i]
		}
		powers[i] = c.power(grid.Step(idx[i]), model)
		rates[i] = c.rate(grid.Step(idx[i]))
		totalP += powers[i]
		totalR += rates[i]
	}
	for {
		best := -1
		var bestScore float64
		var bestDP, bestDR float64
		for i, c := range curves {
			if idx[i]+1 >= grid.Len() {
				continue
			}
			f := grid.Step(idx[i] + 1)
			dP := c.power(f, model) - powers[i]
			dR := c.rate(f) - rates[i]
			if totalP+dP > tdpW {
				continue
			}
			var score float64
			switch obj {
			case HWThroughput:
				// Marginal throughput per marginal watt maximizes total
				// throughput under the power budget (greedy knapsack).
				score = dR / dP
			case HWThroughputPerWatt:
				// Only steps that improve the global ratio are considered.
				newRatio := (totalR + dR) / (totalP + dP)
				score = newRatio - totalR/totalP
				if score <= 0 {
					continue
				}
			}
			if best == -1 || score > bestScore {
				best = i
				bestScore = score
				bestDP = dP
				bestDR = dR
			}
		}
		if best == -1 {
			return stepsOf(grid, idx)
		}
		idx[best]++
		powers[best] += bestDP
		rates[best] += bestDR
		totalP += bestDP
		totalR += bestDR
	}
}

func stepsOf(grid cpu.Grid, idx []int) []int {
	out := make([]int, len(idx))
	for i, k := range idx {
		out[i] = grid.Step(k)
	}
	return out
}

// hwGovernor is one server run's HW-T / HW-TPW allocator. Its inputs
// change with one thing only, which cores hold LC work: such a core
// presents the LC app's curve and the utilization floor, any other its
// own batch app's curve and no floor. So allocate is a pure function of
// that occupancy, and the governor memoizes it per occupancy mask for
// servers of up to 63 cores; wider ones climb every epoch.
type hwGovernor struct {
	lc      occupantCurve
	lcFloor int
	batch   []occupantCurve
	grid    cpu.Grid
	power   cpu.PowerModel
	obj     HWObjective

	curves []occupantCurve
	floors []int
	memo   map[uint64][]int
}

// maxMemoCores is the widest server whose occupancy fits a mask.
const maxMemoCores = 63

// newHWGovernor prepares the allocator for the server cfg, whose core i
// colocates the LC app with cfg.Mix[i].
func newHWGovernor(cfg ServerConfig) *hwGovernor {
	meanCC := cfg.App.Compute.Mean()
	meanMem := cfg.App.MeanServiceNsAtNominal() - meanCC*1000/float64(cpu.NominalMHz)
	g := &hwGovernor{
		lc: occupantCurve{
			computeCyclesPerUnit: meanCC,
			memNsPerUnit:         meanMem,
			activity:             1.0,
		},
		batch:  make([]occupantCurve, len(cfg.Mix)),
		grid:   cfg.Grid,
		power:  cfg.Power,
		obj:    cfg.Objective,
		curves: make([]occupantCurve, len(cfg.Mix)),
		floors: make([]int, len(cfg.Mix)),
		memo:   make(map[uint64][]int),
	}
	for i, b := range cfg.Mix {
		g.batch[i] = occupantCurve{
			computeCyclesPerUnit: b.CyclesPerUnit,
			memNsPerUnit:         b.MemNsPerUnit,
			activity:             b.ActivityFactor,
		}
	}
	// Utilization-governor floor for LC-occupied cores: the lowest step at
	// which the offered LC load stays sustainable (busy fraction <= 0.92).
	// Without it a low-frequency efficiency objective would let queues grow
	// without bound, which no real governor allows. A load no step sustains
	// gets the top step.
	g.lcFloor = cfg.Grid.Len() - 1
	for s := 0; s < cfg.Grid.Len(); s++ {
		f := cfg.Grid.Step(s)
		svc := meanCC*1000/float64(f) + meanMem
		if cfg.Load*svc/cfg.App.MeanServiceNsAtNominal() <= 0.92 {
			g.lcFloor = s
			break
		}
	}
	return g
}

// freqs returns one frequency per core for the occupancy busy (busy[i]:
// core i holds LC work). The result may be shared with later calls;
// read it, do not keep or modify it.
func (g *hwGovernor) freqs(busy []bool) []int {
	if len(busy) > maxMemoCores {
		return g.climb(busy)
	}
	var mask uint64
	for i, b := range busy {
		if b {
			mask |= 1 << i
		}
	}
	f, ok := g.memo[mask]
	if !ok {
		f = g.climb(busy)
		g.memo[mask] = f
	}
	return f
}

// climb runs the allocator on the occupancy busy.
func (g *hwGovernor) climb(busy []bool) []int {
	for i, b := range busy {
		if b {
			g.curves[i], g.floors[i] = g.lc, g.lcFloor
		} else {
			g.curves[i], g.floors[i] = g.batch[i], 0
		}
	}
	return allocate(g.curves, g.floors, g.grid, g.power, tdpCoreW, g.obj)
}

// ServerConfig describes a 6-core colocated server, each core pairing
// one LC app instance with one batch app from the mix, for every scheme:
// the software-managed RubikColoc and StaticColoc, and the hardware
// allocators HW-T / HW-TPW that own the frequencies.
type ServerConfig struct {
	App workload.LCApp
	Mix []workload.BatchApp
	// Load is the LC load fraction per core.
	Load float64
	// RequestsPerCore is the LC stream length per core (negative is an
	// error): core i streams Poisson arrivals at Load, seeded
	// Seed + 101·i.
	RequestsPerCore int
	Seed            int64
	// BoundNs is the LC tail latency bound (RubikColoc only).
	BoundNs float64

	Grid              cpu.Grid
	Power             cpu.PowerModel
	TransitionLatency sim.Time
	Interference      Interference
	// Objective selects the hardware allocator (RunHWServer only).
	Objective HWObjective
}

// validate checks what every server runner needs: a batch mix to pair
// with the LC cores, a non-negative stream length and an LC load that is
// finite and positive. Any other load would reach NewLoadSource as a rate
// it replaces with its 1 req/s fallback.
func (cfg ServerConfig) validate() error {
	if len(cfg.Mix) == 0 {
		return fmt.Errorf("coloc: empty batch mix")
	}
	if cfg.RequestsPerCore < 0 {
		return fmt.Errorf("coloc: negative LC stream length %d", cfg.RequestsPerCore)
	}
	if !(cfg.Load > 0) || math.IsInf(cfg.Load, 1) {
		return fmt.Errorf("coloc: LC load %v is not finite and positive", cfg.Load)
	}
	return nil
}

// coreConfig is core i's share of the server: the LC stream seeded
// Seed + 101·i paired with batch, on the shared grid, power model,
// transition latency and interference model, starting at nominal. The
// caller sets the LC policy, or leaves it nil for an allocator to own
// the frequency.
func (cfg ServerConfig) coreConfig(i int, batch workload.BatchApp) CoreConfig {
	return CoreConfig{
		App:               cfg.App,
		Batch:             batch,
		Source:            workload.NewLoadSource(cfg.App, cfg.Load, cfg.RequestsPerCore, cfg.Seed+int64(i)*101),
		Grid:              cfg.Grid,
		Power:             cfg.Power,
		TransitionLatency: cfg.TransitionLatency,
		InitialMHz:        cpu.NominalMHz,
		Interference:      cfg.Interference,
	}
}

const (
	// hwEpoch is the hardware allocator's cadence (paper: 100 us).
	hwEpoch = 100 * sim.Microsecond
	// tdpCoreW is the core-power budget the allocator respects. The
	// chip's 65 W TDP (paper Table 2) covers uncore and the memory
	// interface too; with all six cores busy — which colocation
	// guarantees — roughly 36 W remains for the cores. A binding core
	// budget is what lets high-IPC batch occupants starve LC cores
	// under HW-T, the failure mode Fig. 15 shows.
	tdpCoreW = 33
)

// ServerResult pools the per-core results of a 6-core server.
type ServerResult struct {
	Cores []CoreResult
}

// TailNs pools post-warmup LC completions across cores (warmup trimmed
// per core) and returns the q-quantile.
func (r ServerResult) TailNs(q, warmupFrac float64) float64 {
	logs := make([][]queueing.Completion, len(r.Cores))
	for i, c := range r.Cores {
		logs[i] = c.Completions
	}
	return queueing.PooledTailNs(logs, q, warmupFrac)
}

// TotalEnergyJ returns LC+batch core energy across cores.
func (r ServerResult) TotalEnergyJ() float64 {
	var e float64
	for _, c := range r.Cores {
		e += c.LCEnergyJ + c.BatchEnergyJ
	}
	return e
}

// RunHWServer simulates a 6-core colocated server under a hardware
// QoS-blind DVFS allocator. Every epoch the allocator inspects what each
// core is running (LC request or batch work) and re-divides the TDP; it is
// oblivious to queue state and latency bounds, which is exactly why it
// violates tails (paper Fig. 15).
func RunHWServer(cfg ServerConfig) (ServerResult, error) {
	if err := cfg.validate(); err != nil {
		return ServerResult{}, err
	}
	eng := sim.NewEngine()
	cores := make([]*core, len(cfg.Mix))
	for i, b := range cfg.Mix {
		cc, err := newCore(eng, cfg.coreConfig(i, b))
		if err != nil {
			return ServerResult{}, err
		}
		cores[i] = cc
	}
	for _, c := range cores {
		c.start()
	}

	gov := newHWGovernor(cfg)

	// The epoch tick is one pre-registered event rescheduling itself, and
	// the occupancy it hands the governor is reused across epochs.
	busy := make([]bool, len(cores))
	var epochH sim.Handle
	epochTick := func() {
		for i, c := range cores {
			busy[i] = c.queueLen() > 0
		}
		freqs := gov.freqs(busy)
		anyWork := false
		for i, c := range cores {
			c.accrue()
			c.applyFreq(freqs[i])
			if !c.drained() {
				anyWork = true
			}
		}
		if anyWork {
			eng.RescheduleAfter(epochH, hwEpoch)
		}
	}
	epochH = eng.Register(epochTick)
	eng.RescheduleAfter(epochH, hwEpoch)
	eng.Run()

	res := ServerResult{Cores: make([]CoreResult, len(cores))}
	for i, c := range cores {
		res.Cores[i] = c.result()
	}
	return res, nil
}
