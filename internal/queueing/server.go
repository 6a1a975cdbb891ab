package queueing

import (
	"fmt"

	"rubik/internal/cpu"
	"rubik/internal/sim"
	"rubik/internal/stats"
	"rubik/internal/workload"
)

// Config parameterizes a simulated core.
type Config struct {
	// Grid is the DVFS frequency grid (default: paper Table 2).
	Grid cpu.Grid
	// Power is the core power model.
	Power cpu.PowerModel
	// TransitionLatency is the V/F switch latency (paper Table 2: 4 us;
	// the real-system mode of Fig. 11 uses 130 us).
	TransitionLatency sim.Time
	// WakeLatency is the sleep-exit penalty paid by the first request of a
	// busy period (Haswell C3-like: private caches refill from the warm
	// LLC in microseconds).
	WakeLatency sim.Time
	// InitialMHz is the starting frequency (default: nominal).
	InitialMHz int
	// RecordTimeline enables frequency and active-energy timelines in the
	// Result, used by the transient-response figures (1b, 10).
	RecordTimeline bool
	// DropCompletions switches the core to streaming metrics: per-request
	// records fold into a fixed-size response-latency histogram
	// (Result.ResponseHist) instead of accumulating in
	// Result.Completions, making memory independent of run length.
	// CompletionObserver policies and completion-aware sources still see
	// every completion. Use for constant-memory runs of long sources.
	DropCompletions bool
}

// FreqSample marks a frequency change: the core runs at MHz from T onward.
type FreqSample struct {
	T   sim.Time
	MHz int
}

// EnergySample records active energy (joules) accrued in the interval
// ending at T since the previous sample.
type EnergySample struct {
	T sim.Time
	J float64
}

// DefaultConfig returns the paper's simulated-CMP configuration.
func DefaultConfig() Config {
	return Config{
		Grid:              cpu.DefaultGrid(),
		Power:             cpu.DefaultPowerModel(),
		TransitionLatency: 4 * sim.Microsecond,
		WakeLatency:       5 * sim.Microsecond,
		InitialMHz:        cpu.NominalMHz,
	}
}

// Completion records one served request. Its latencies are derived from
// its timestamps (ResponseNs, ServiceNs), so a record is 56 bytes: the
// size each arena slab reserves per request.
type Completion struct {
	// ID is the trace request ID.
	ID int
	// Arrival, Start and Done are the request's lifecycle timestamps.
	Arrival, Start, Done sim.Time
	// ComputeCycles and MemTime are the request's *measured* work, as
	// CPI-stack performance counters would report it (elapsed memory time
	// includes stalls the request actually paid, e.g. the wake penalty).
	ComputeCycles float64
	MemTime       sim.Time
	// QueueLenAtArrival is the number of requests already in the system
	// when this one arrived (0 = it found the core idle).
	QueueLenAtArrival int
}

// ResponseNs returns the end-to-end latency, Done - Arrival.
func (c Completion) ResponseNs() float64 { return float64(c.Done - c.Arrival) }

// ServiceNs returns the time in service, Done - Start, including DVFS and
// wake effects.
func (c Completion) ServiceNs() float64 { return float64(c.Done - c.Start) }

// Result is the outcome of simulating one trace under one policy.
type Result struct {
	Policy      string
	Completions []Completion
	// Served counts completed requests — equal to len(Completions) unless
	// Config.DropCompletions streamed the records out.
	Served int
	// ResponseHist is the streaming response-latency histogram, populated
	// only under Config.DropCompletions; TailNs falls back to it when the
	// completion log is empty.
	ResponseHist *stats.LogHistogram
	// ActiveEnergyJ is core energy while serving requests; IdleEnergyJ is
	// sleep energy between them. The paper's core power/energy figures use
	// active energy only (Fig. 9b: fixed-frequency energy/request is flat
	// across load).
	ActiveEnergyJ float64
	IdleEnergyJ   float64
	ActiveNs      sim.Time
	IdleNs        sim.Time
	// Residency is the fraction of active time per grid step.
	Residency []float64
	// EndTime is when the last request completed.
	EndTime sim.Time
	// FreqTimeline and EnergyTimeline are populated when
	// Config.RecordTimeline is set.
	FreqTimeline   []FreqSample
	EnergyTimeline []EnergySample
}

// Run simulates the trace under the policy on a dedicated single-core
// engine and returns the result. A materialized trace is just one Source:
// Run is RunSource over the trace's stream.
func Run(trace workload.Trace, p Policy, cfg Config) (Result, error) {
	return RunSource(workload.NewTraceSource(trace), p, cfg)
}

// RunSource simulates a streaming request source under the policy on a
// dedicated single-core engine. It is a thin assembly of the shared Core:
// a Feeder pulls the source through one rescheduled arrival handle, the
// policy's Ticker (if any) is scheduled, and the engine runs until the
// source drains and the queue empties. The completion log is an Arena
// with one user, sized by the source's Len. Nothing on this path
// materializes the stream, so run length is bounded by time, not memory;
// pair a long source with Config.DropCompletions for constant memory.
// The policy must not be nil: unlike a coloc core, whose frequency an
// external allocator owns, nothing else would ever set this core's
// frequency.
func RunSource(src workload.Source, p Policy, cfg Config) (Result, error) {
	if p == nil {
		return Result{}, fmt.Errorf("queueing: nil policy")
	}
	eng := sim.NewEngine()
	c, err := NewCore(eng, p, cfg, NewArena(src.Len(), 1))
	if err != nil {
		return Result{}, err
	}
	f := NewSourceFeeder(eng, src, c.Enqueue)
	f.Start()
	c.Start(f)
	eng.Run()
	return c.Finalize(), nil
}
