package workload

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"

	"rubik/internal/sim"
	"rubik/internal/stats"
)

// Request is one latency-critical request in a trace: its arrival time and
// its work, split into frequency-scalable compute cycles and
// frequency-invariant memory-bound time.
type Request struct {
	ID            int      `json:"id"`
	Arrival       sim.Time `json:"arrivalNs"`
	ComputeCycles float64  `json:"computeCycles"`
	MemTime       sim.Time `json:"memTimeNs"`
}

// ServiceNs returns the request's uninterrupted service time in ns at a
// constant frequency fMHz.
func (r Request) ServiceNs(fMHz int) float64 {
	return r.ComputeCycles*1000/float64(fMHz) + float64(r.MemTime)
}

// Trace is a reusable request stream. Every scheme in an experiment replays
// the same trace, mirroring the paper's trace-driven methodology (Sec. 5.3:
// "we capture per-request arrival times, core cycles, memory-bound times
// ... and replay the trace under different schemes").
type Trace struct {
	App      string    `json:"app"`
	Seed     int64     `json:"seed"`
	Requests []Request `json:"requests"`
}

// Generate builds a trace of n requests for app using the given arrival
// process and seed: the sequence NewGenSource streams, materialized. It
// is fully deterministic; n <= 0 gives an empty trace. Like the source,
// Generate rewinds a stateful arrival process (an *MMPP) to its start, so
// one that already drove another run would restart; no caller passes one.
func Generate(app LCApp, arrivals ArrivalProcess, n int, seed int64) Trace {
	src := NewGenSource(app, arrivals, n, seed)
	tr := Trace{App: app.Name, Seed: seed, Requests: make([]Request, 0, src.Len())}
	for req, ok := src.Next(); ok; req, ok = src.Next() {
		tr.Requests = append(tr.Requests, req)
	}
	return tr
}

// GenerateAtLoad builds a Poisson trace at a fraction of the app's
// nominal-frequency capacity.
func GenerateAtLoad(app LCApp, load float64, n int, seed int64) Trace {
	return Generate(app, Poisson{RatePerSec: app.RateForLoad(load)}, n, seed)
}

// Duration returns the time of the last arrival (0 for an empty trace).
func (t Trace) Duration() sim.Time {
	if len(t.Requests) == 0 {
		return 0
	}
	return t.Requests[len(t.Requests)-1].Arrival
}

// Stats summarizes a trace's service-time and arrival statistics.
type Stats struct {
	Requests           int
	DurationNs         int64
	MeanServiceNs      float64
	CVService          float64
	P50ServiceNs       float64
	P95ServiceNs       float64
	P99ServiceNs       float64
	MeanInterarrivalNs float64
	OfferedLoad        float64 // at nominal frequency
	MemShare           float64 // memory-bound fraction of total work time
}

// Describe computes summary statistics at the given frequency. Its
// service percentiles follow stats.NearestRank, like every measured tail.
func (t Trace) Describe(fMHz int) Stats {
	s := Stats{Requests: len(t.Requests), DurationNs: int64(t.Duration())}
	if len(t.Requests) == 0 {
		return s
	}
	services := make([]float64, len(t.Requests))
	var sum, sumSq, memNs, totalNs float64
	for i, r := range t.Requests {
		v := r.ServiceNs(fMHz)
		services[i] = v
		sum += v
		sumSq += v * v
		memNs += float64(r.MemTime)
		totalNs += v
	}
	n := float64(len(services))
	mean := sum / n
	variance := sumSq/n - mean*mean
	if variance < 0 {
		variance = 0
	}
	sort.Float64s(services)
	s.MeanServiceNs = mean
	s.CVService = math.Sqrt(variance) / mean
	s.P50ServiceNs = stats.PercentileSorted(services, 0.50)
	s.P95ServiceNs = stats.PercentileSorted(services, 0.95)
	s.P99ServiceNs = stats.PercentileSorted(services, 0.99)
	if len(t.Requests) > 1 {
		s.MeanInterarrivalNs = float64(t.Duration()) / float64(len(t.Requests)-1)
	}
	if t.Duration() > 0 {
		s.OfferedLoad = totalNs / float64(t.Duration())
	}
	if totalNs > 0 {
		s.MemShare = memNs / totalNs
	}
	return s
}

// jsonlHeader is the first line of a JSONL trace file.
type jsonlHeader struct {
	App  string `json:"app"`
	Seed int64  `json:"seed"`
}

// WriteJSONL streams a source to w in the JSONL trace format — a header
// object carrying the trace metadata, then one request object per line —
// until the source drains, holding one request at a time: arbitrarily
// long scenario exports in constant memory, and no materialized trace.
// Load reads it back. It returns the number of requests written, which
// falls short of src.Len() only for a completion-aware source (closed-loop
// clients), which yields just its open-loop prefix without the completion
// feedback an export cannot give.
func WriteJSONL(w io.Writer, app string, seed int64, src Source) (int, error) {
	enc := json.NewEncoder(w)
	if err := enc.Encode(jsonlHeader{App: app, Seed: seed}); err != nil {
		return 0, fmt.Errorf("workload: encoding JSONL header: %w", err)
	}
	written := 0
	for req, ok := src.Next(); ok; req, ok = src.Next() {
		if err := enc.Encode(req); err != nil {
			return written, fmt.Errorf("workload: encoding request %d: %w", req.ID, err)
		}
		written++
	}
	return written, nil
}

// Load reads a trace written by WriteJSONL, or a legacy single-object
// JSON trace (the Trace struct encoded whole, requests inside the
// metadata object), and validates its invariants (non-decreasing
// arrivals, positive work). Both layouts start with one JSON object
// carrying the metadata; the JSONL form then streams one request object
// per value.
func Load(rd io.Reader) (Trace, error) {
	dec := json.NewDecoder(rd)
	var t Trace
	if err := dec.Decode(&t); err != nil {
		return Trace{}, fmt.Errorf("workload: decoding trace: %w", err)
	}
	for dec.More() {
		var r Request
		if err := dec.Decode(&r); err != nil {
			return Trace{}, fmt.Errorf("workload: decoding JSONL request %d: %w", len(t.Requests), err)
		}
		t.Requests = append(t.Requests, r)
	}
	var prev sim.Time
	for i, r := range t.Requests {
		if r.Arrival < prev {
			return Trace{}, fmt.Errorf("workload: trace arrival %d goes backwards", i)
		}
		if r.ComputeCycles <= 0 || r.MemTime < 0 {
			return Trace{}, fmt.Errorf("workload: trace request %d has invalid work", i)
		}
		prev = r.Arrival
	}
	return t, nil
}
