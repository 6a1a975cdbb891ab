package coloc

import (
	"fmt"

	"rubik/internal/cpu"
	"rubik/internal/queueing"
	"rubik/internal/sim"
	"rubik/internal/workload"
)

// CoreConfig describes one colocated core: an LC app instance sharing the
// core with one batch app. The LC app has strict priority — it runs
// whenever it has pending requests, and the batch app soaks up the idle
// gaps (paper Fig. 13c).
type CoreConfig struct {
	App   workload.LCApp
	Batch workload.BatchApp
	// Source streams the LC requests: any scenario source (bursty,
	// diurnal, flash-crowd, closed-loop clients fed the core's
	// completions, modulated) without materializing it, or a materialized
	// trace through workload.NewTraceSource. The run drains the stream; a
	// missing source is an error.
	Source workload.Source
	// LCPolicy decides LC frequencies. It is nil only on the cores of
	// RunHWServer, whose server-level allocator (HW-T / HW-TPW) sets every
	// core's frequency each epoch; RunCore rejects a nil policy.
	LCPolicy queueing.Policy
	// BatchMHz is the frequency the core drops to while batch occupies it
	// (ignored when the allocator owns the frequency).
	BatchMHz int

	Grid              cpu.Grid
	Power             cpu.PowerModel
	TransitionLatency sim.Time
	InitialMHz        int
	Interference      Interference
}

// CoreResult summarizes one colocated core's run.
type CoreResult struct {
	Completions []queueing.Completion
	// LCEnergyJ and BatchEnergyJ split core energy by occupant.
	LCEnergyJ    float64
	BatchEnergyJ float64
	// BatchUnits is the batch work completed in the LC idle gaps.
	BatchUnits  float64
	LCBusyNs    float64
	BatchBusyNs float64
	EndTime     sim.Time
}

// TailNs returns the q-quantile LC response latency after warmup
// (queueing.TrimWarmup's rule).
func (r CoreResult) TailNs(q, warmupFrac float64) float64 {
	return queueing.PooledTailNs([][]queueing.Completion{r.Completions}, q, warmupFrac)
}

// core is the colocated-core simulator: the shared queueing.Core serving
// the LC stream, with hooks that fill LC idle time with batch execution
// and apply the core-state interference model when the LC app resumes.
// The request-serving loop itself lives in queueing.Core; this type only
// adds the colocation semantics.
type core struct {
	eng  *sim.Engine
	cfg  CoreConfig
	qc   *queueing.Core
	feed *queueing.Feeder

	// Interference state. Batch occupies the core whenever the LC queue
	// is empty, from occupancyStart until LC work arrives.
	occupancyStart sim.Time
	lcMeanCycles   float64 // the LC app's working-set proxy

	// Batch progress accrued in the LC idle gaps.
	batchUnits   float64
	batchEnergyJ float64
	batchBusyNs  float64
}

// newCore validates the config and prepares a core on the given engine.
// queueing.NewCore validates the grid, initial frequency and power model.
func newCore(eng *sim.Engine, cfg CoreConfig) (*core, error) {
	src := cfg.Source
	if src == nil {
		return nil, fmt.Errorf("coloc: no LC request source")
	}
	qc, err := queueing.NewCore(eng, cfg.LCPolicy, queueing.Config{
		Grid:              cfg.Grid,
		Power:             cfg.Power,
		TransitionLatency: cfg.TransitionLatency,
		InitialMHz:        cfg.InitialMHz,
		// No WakeLatency: the core never sleeps — batch work keeps it busy,
		// and the resume cost is the interference model's preemption
		// latency instead.
	}, queueing.NewArena(src.Len(), 1))
	if err != nil {
		return nil, err
	}
	if cfg.LCPolicy != nil && cfg.BatchMHz == 0 {
		cfg.BatchMHz = cfg.Batch.OptimalTPWFreq(cfg.Grid, cfg.Power)
	}
	c := &core{
		eng:          eng,
		cfg:          cfg,
		qc:           qc,
		lcMeanCycles: cfg.App.Compute.Mean(),
	}
	qc.SetHooks(queueing.Hooks{
		StartService: c.startService,
		Idle:         c.onIdle,
		IdleAccrual:  c.accrueBatch,
		Grant:        c.grant,
	})
	c.feed = queueing.NewSourceFeeder(eng, src, qc.Enqueue)
	return c, nil
}

// start schedules the first arrival and policy tick.
func (c *core) start() {
	c.feed.Start()
	c.qc.Start(c.feed)
	c.occupancyStart = c.eng.Now()
	if c.cfg.LCPolicy != nil {
		c.qc.ApplyFreq(c.cfg.BatchMHz)
	}
}

// accrueBatch charges batch units and energy for an LC-idle span: batch
// occupies the core instead of sleep.
func (c *core) accrueBatch(dtNs float64, curMHz int) {
	c.batchUnits += c.cfg.Batch.UnitsPerSec(curMHz) * dtNs / 1e9
	c.batchEnergyJ += c.cfg.Batch.PowerW(curMHz, c.cfg.Power) * dtNs / 1e9
	c.batchBusyNs += dtNs
}

// grant lets the LC policy own the frequency only while LC work is
// queued. Event decisions always see a queued request (onIdle replaces
// the draining one), so this withholds the policy's ticks in LC idle gaps.
func (c *core) grant(desiredMHz int, v queueing.View) int {
	if len(v.Queue) == 0 {
		return 0
	}
	return desiredMHz
}

// startService applies the interference model to the request taking the
// head of the queue. The request that resumes the LC app ends a batch
// occupancy and pays its one-time re-warming cycles and the
// context-switch latency; later requests of the busy period run on a
// warm core.
func (c *core) startService(a *queueing.ActiveRequest, preempting bool) {
	if preempting {
		occupiedNs := float64(a.Start - c.occupancyStart)
		a.RemainingCC += c.cfg.Interference.extraCycles(c.cfg.Batch, c.lcMeanCycles, occupiedNs)
		a.RemainingMem += float64(c.cfg.Interference.PreemptLatency)
	}
}

// onIdle hands the core back to batch when the LC queue drains.
func (c *core) onIdle(now sim.Time) {
	c.occupancyStart = now
	if c.cfg.LCPolicy != nil {
		c.qc.ApplyFreq(c.cfg.BatchMHz)
	}
}

// accrue brings the core's progress and energy accounting up to now.
func (c *core) accrue() { c.qc.Accrue() }

// applyFreq retargets the core's DVFS actuator (external allocators).
func (c *core) applyFreq(fMHz int) { c.qc.ApplyFreq(fMHz) }

// queueLen returns the LC queue population.
func (c *core) queueLen() int { return c.qc.QueueLen() }

// drained reports whether all LC requests completed.
func (c *core) drained() bool {
	return !c.feed.More() && c.qc.QueueLen() == 0
}

// result finalizes the core's accounting into a CoreResult. The LC side
// comes from the shared core's meter (active time = LC occupancy); the
// batch side was accrued by the idle hook.
func (c *core) result() CoreResult {
	qr := c.qc.Finalize()
	return CoreResult{
		Completions:  qr.Completions,
		LCEnergyJ:    qr.ActiveEnergyJ,
		BatchEnergyJ: c.batchEnergyJ,
		BatchUnits:   c.batchUnits,
		LCBusyNs:     float64(qr.ActiveNs),
		BatchBusyNs:  c.batchBusyNs,
		EndTime:      qr.EndTime,
	}
}

// RunCore simulates a single colocated core to completion of its LC
// stream. The LC policy must not be nil: no allocator runs beside a lone
// core, so nothing else would ever set the LC app's frequency.
func RunCore(cfg CoreConfig) (CoreResult, error) {
	if cfg.LCPolicy == nil {
		return CoreResult{}, fmt.Errorf("coloc: nil LC policy")
	}
	eng := sim.NewEngine()
	c, err := newCore(eng, cfg)
	if err != nil {
		return CoreResult{}, err
	}
	c.start()
	eng.Run()
	return c.result(), nil
}
