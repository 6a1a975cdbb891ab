package workload

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzLoad fuzzes the trace reader over both on-disk formats — the legacy
// single-object JSON of Save and the streaming JSONL of WriteJSONL — with
// the round-trip property: any bytes Load accepts describe a trace that
// survives re-serialization through *either* writer and reloads deeply
// identical. The seed corpus covers both writers, hand-built edge shapes,
// and near-miss invalid inputs so the fuzzer starts at the format
// boundary.
func FuzzLoad(f *testing.F) {
	app := Masstree()
	tr := GenerateAtLoad(app, 0.5, 20, 1)
	var legacy bytes.Buffer
	if err := tr.Save(&legacy); err != nil {
		f.Fatal(err)
	}
	f.Add(legacy.Bytes())
	var jsonl bytes.Buffer
	if _, err := WriteJSONL(&jsonl, tr.App, tr.Seed, NewTraceSource(tr), -1); err != nil {
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

		var buf bytes.Buffer
		if err := tr.Save(&buf); err != nil {
			t.Fatalf("re-saving accepted trace (legacy): %v", err)
		}
		back, err := Load(&buf)
		if err != nil {
			t.Fatalf("reloading legacy round-trip: %v", err)
		}
		if !reflect.DeepEqual(tr, back) {
			t.Fatalf("legacy round-trip mutated the trace:\n got %+v\nwant %+v", back, tr)
		}

		buf.Reset()
		if _, err := WriteJSONL(&buf, tr.App, tr.Seed, NewTraceSource(tr), -1); err != nil {
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
