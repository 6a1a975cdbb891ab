package workload

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"testing"
)

// FuzzLoad fuzzes the trace reader over both layouts it reads — the
// legacy single-object JSON (the Trace struct encoded whole) and the
// JSONL of WriteJSONL — with the round-trip property: any bytes Load
// accepts describe a trace that survives re-encoding in *either* layout
// and reloads deeply identical. The seed corpus covers both layouts,
// hand-built edge shapes, and near-miss invalid inputs so the fuzzer
// starts at the format boundary.
func FuzzLoad(f *testing.F) {
	app := Masstree()
	tr := GenerateAtLoad(app, 0.5, 20, 1)
	legacy, err := json.Marshal(tr)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(legacy)
	var jsonl bytes.Buffer
	if _, err := WriteJSONL(&jsonl, tr.App, tr.Seed, NewTraceSource(tr)); err != nil {
		f.Fatal(err)
	}
	f.Add(jsonl.Bytes())
	f.Add([]byte(`{"app":"x","seed":7,"requests":[]}`))
	f.Add([]byte(`{"app":"x","seed":7}` + "\n" +
		`{"id":0,"arrivalNs":10,"computeCycles":100,"memTimeNs":5}` + "\n" +
		`{"id":1,"arrivalNs":10,"computeCycles":1,"memTimeNs":0}`))
	f.Add([]byte(`{"app":"x","seed":7}` + "\n" +
		`{"id":0,"arrivalNs":10,"computeCycles":100,"memTimeNs":5}` + "\n" +
		`{"id":1,"arrivalNs":3,"computeCycles":1,"memTimeNs":0}`)) // arrivals go backwards
	f.Add([]byte(`{"requests":[{"id":0,"arrivalNs":1,"computeCycles":0,"memTimeNs":0}]}`)) // zero work
	f.Add([]byte(`not json`))
	f.Add([]byte(``))

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := Load(bytes.NewReader(data))
		if err != nil {
			return // rejected input: only the absence of panics is asserted
		}
		// Accepted traces satisfy the documented invariants.
		var prev int64
		for i, r := range tr.Requests {
			if r.Arrival < prev {
				t.Fatalf("accepted trace has backwards arrival at %d", i)
			}
			if r.ComputeCycles <= 0 || r.MemTime < 0 {
				t.Fatalf("accepted trace has invalid work at %d", i)
			}
			prev = r.Arrival
		}

		legacy, err := json.Marshal(tr)
		if err != nil {
			t.Fatalf("re-encoding accepted trace (legacy): %v", err)
		}
		back, err := Load(bytes.NewReader(legacy))
		if err != nil {
			t.Fatalf("reloading legacy round-trip: %v", err)
		}
		if !reflect.DeepEqual(tr, back) {
			t.Fatalf("legacy round-trip mutated the trace:\n got %+v\nwant %+v", back, tr)
		}

		var buf bytes.Buffer
		if _, err := WriteJSONL(&buf, tr.App, tr.Seed, NewTraceSource(tr)); err != nil {
			t.Fatalf("re-saving accepted trace (JSONL): %v", err)
		}
		back, err = Load(&buf)
		if err != nil {
			t.Fatalf("reloading JSONL round-trip: %v", err)
		}
		// WriteJSONL streams the request set out of the header object, so
		// compare fields: App/Seed plus an element-wise request match (a
		// nil and an empty slice are the same empty trace).
		if back.App != tr.App || back.Seed != tr.Seed || len(back.Requests) != len(tr.Requests) {
			t.Fatalf("JSONL round-trip mutated the trace header: got %+v want %+v", back, tr)
		}
		for i := range tr.Requests {
			if tr.Requests[i] != back.Requests[i] {
				t.Fatalf("JSONL round-trip mutated request %d: got %+v want %+v",
					i, back.Requests[i], tr.Requests[i])
			}
		}
	})
}

// FuzzScenarioSource drives the validated scenario constructor with an
// arbitrary scenario index, load, request cap n in [0, 512] (or 1<<30
// when nRaw is math.MaxUint16) and seed. Every input must either be
// rejected, and then the scenario's own New must stream nothing, or
// build a source that yields at most n requests (at most 256 are pulled)
// with non-negative, non-decreasing arrivals and distinct IDs below n,
// issued in pull order by the open-loop shapes.
// Completion-aware sources see each request complete at its arrival. The
// seed corpus holds the loads that used to panic or spin a source, two
// ordinary runs, accepted extremes that overflow the simulated clock
// unless time arithmetic saturates, and closed loops of 1<<30 requests
// whose load would size a population of 2e6 or 2e301 clients.
func FuzzScenarioSource(f *testing.F) {
	scs := Scenarios()
	for i := range scs {
		for _, load := range []float64{0, -0.5, math.NaN(), math.Inf(1), 1e-300} {
			f.Add(uint8(i), load, uint16(64), int64(i))
		}
	}
	f.Add(uint8(2), 0.5, uint16(300), int64(7))
	f.Add(uint8(5), 0.5, uint16(300), int64(7))
	// Accepted extremes on masstree: a closed loop of 2e13 clients, bursty
	// holds of 400 mean gaps past the clock, Poisson and bursty arrivals
	// that pass it, and a step phase at 2/3 of a run near the clock's end.
	f.Add(uint8(5), 1e12, uint16(10), int64(1))
	f.Add(uint8(2), 1.5e-12, uint16(2), int64(1))
	f.Add(uint8(0), 3.75e-14, uint16(2), int64(3))
	f.Add(uint8(2), 5e-14, uint16(3), int64(2))
	f.Add(uint8(1), 5e-14, uint16(3), int64(2))
	f.Add(uint8(5), 1e5, uint16(math.MaxUint16), int64(1))
	f.Add(uint8(5), 1e300, uint16(math.MaxUint16), int64(1))
	f.Fuzz(func(t *testing.T, idx uint8, load float64, nRaw uint16, seed int64) {
		sc := scs[int(idx)%len(scs)]
		n := int(nRaw) % 513
		if nRaw == math.MaxUint16 {
			n = 1 << 30
		}
		src, err := NewScenarioSource(sc.Name, Masstree(), load, n, seed)
		if err != nil {
			bare := sc.New(Masstree(), load, n, seed)
			if _, ok := bare.Next(); ok || bare.Len() != 0 {
				t.Fatalf("%s load %v: New streams from a load NewScenarioSource rejects (%v)", sc.Name, load, err)
			}
			return
		}
		ca, closed := src.(CompletionAware)
		pulls := min(n, 256)
		seen := make(map[int]bool, pulls)
		var prev int64
		for k := 0; k < pulls; k++ {
			req, ok := src.Next()
			if !ok {
				break
			}
			if req.Arrival < prev {
				t.Fatalf("%s load %v: arrival %d after %d", sc.Name, load, req.Arrival, prev)
			}
			if req.ID < 0 || req.ID >= n || seen[req.ID] || (!closed && req.ID != k) {
				t.Fatalf("%s load %v: request %d has ID %d", sc.Name, load, k, req.ID)
			}
			seen[req.ID] = true
			prev = req.Arrival
			if closed {
				ca.OnCompletion(req.Arrival)
			}
		}
		if n <= 256 {
			if _, ok := src.Next(); ok {
				t.Fatalf("%s load %v: more than n = %d requests", sc.Name, load, n)
			}
		}
	})
}
