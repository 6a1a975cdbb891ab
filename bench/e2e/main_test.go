package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"

	"rubik"
	"rubik/internal/cluster"
	"rubik/internal/workload"
)

// TestMain lets the parent path re-exec the test binary as its child.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-child" {
		os.Exit(run(os.Args[1:], os.Stdout))
	}
	os.Exit(m.Run())
}

// TestQuickGate runs every workload at quick sizes with tracing on, so the
// whole correctness gate applies: identical digests across repetitions,
// shard counts and traced runs, no lost requests, and each workload's
// mechanism check.
func TestQuickGate(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			if raceEnabled && w.Drop {
				w.check = nil // stream's check counts allocated bytes
			}
			rep := measure(w, options{Seed: 7, Trace: true, Quick: true})
			for _, f := range rep.Failures {
				t.Error(f)
			}
			if rep.Failed != 0 || rep.Attempted == 0 {
				t.Errorf("attempted %d, failed %d", rep.Attempted, rep.Failed)
			}
			for _, m := range endToEnd {
				if v := rep.Metrics[m.Name]; !(v > 0) {
					t.Errorf("end-to-end %s = %v, want > 0", m.Name, v)
				}
			}
			for _, m := range perLayer {
				if _, ok := rep.Layers[m.Name]; !ok {
					t.Errorf("per-layer %s missing", m.Name)
				}
			}
			if calls := rep.Layers["capping.allocate.calls"]; (w.RackWPerSocket > 0) != (calls > 0) {
				t.Errorf("capping.allocate.calls = %v", calls)
			}
			if calls := rep.Layers["core.on_tick.calls"]; (w.Refresh > 0) != (calls > 0) {
				t.Errorf("core.on_tick.calls = %v", calls)
			}
		})
	}
}

// TestTracingTransparent pins the wrappers as pure observers: the traced
// fleet result is deeply equal to the plain one for every workload shape.
func TestTracingTransparent(t *testing.T) {
	bound, err := rubik.TailBound(workload.Masstree(), 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			w := w.sized(true)
			run := func(tr *tracer) cluster.FleetResult {
				cfg, err := w.fleet(3, bound, 1, tr)
				if err != nil {
					t.Fatal(err)
				}
				res, err := cluster.RunFleet(cfg)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			plain := run(nil)
			tr := newTracer(w.Sockets, w.Cores)
			traced := run(tr)
			if !reflect.DeepEqual(plain, traced) {
				t.Fatal("traced fleet result differs from the plain one")
			}
			if tr.layerTotals().next.calls == 0 {
				t.Fatal("tracer saw no source calls")
			}
		})
	}
}

// TestBenchmarkJSON fails when BENCHMARK.json drifts from the registry.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricSpec `json:"end_to_end"`
		PerLayer []metricSpec `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if want := []string{"bash", "bench/e2e/run.sh"}; !reflect.DeepEqual(doc.Command, want) {
		t.Errorf("command %q, want %q", doc.Command, want)
	}
	if want := []string{"bench/e2e"}; !reflect.DeepEqual(doc.Paths, want) {
		t.Errorf("paths %q, want %q", doc.Paths, want)
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds %d out of [1, 60]", doc.RunSeconds)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, registry has %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := doc.Workloads[i]; got.Name != w.Name || got.Why != w.Why {
			t.Errorf("workload %d = %+v, registry has %q: %q", i, got, w.Name, w.Why)
		}
	}
	if !reflect.DeepEqual(doc.EndToEnd, endToEnd) {
		t.Errorf("end_to_end drifted:\n got %+v\nwant %+v", doc.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(doc.PerLayer, perLayer) {
		t.Errorf("per_layer drifted:\n got %+v\nwant %+v", doc.PerLayer, perLayer)
	}
}

// TestResultLine drives the command as a benchmark harness does, through
// the child process, and checks the JSON result line it ends with.
func TestResultLine(t *testing.T) {
	for _, trace := range []string{"0", "1"} {
		var out bytes.Buffer
		args := normalizeArgs([]string{"--workload", "trough", "--seed", "5", "--seconds", "0", "--trace", trace, "-quick"})
		if code := run(args, &out); code != 0 {
			t.Fatalf("trace %s: exit %d\n%s", trace, code, out.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res struct {
			Correct   bool  `json:"correct"`
			Attempted int64 `json:"attempted"`
			Failed    int64 `json:"failed"`
			Metrics   map[string]struct {
				Value float64 `json:"value"`
				Unit  string  `json:"unit"`
			} `json:"metrics"`
		}
		dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&res); err != nil {
			t.Fatalf("trace %s: last line: %v", trace, err)
		}
		if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
			t.Errorf("trace %s: correct %v attempted %d failed %d", trace, res.Correct, res.Attempted, res.Failed)
		}
		want := endToEnd
		if trace == "1" {
			want = perLayer
		}
		if len(res.Metrics) != len(want) {
			t.Errorf("trace %s: %d metrics, want %d", trace, len(res.Metrics), len(want))
		}
		for _, m := range want {
			if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
				t.Errorf("trace %s: metric %s = %+v", trace, m.Name, got)
			}
		}
	}
}
