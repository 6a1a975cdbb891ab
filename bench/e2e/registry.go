package main

import (
	"fmt"
	"io"
	"strings"
)

// metricSpec describes one reported metric. Bound is the share of the
// parent's median by which an end-to-end metric may worsen before a change
// counts as a regression; per-layer metrics carry no bound.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "higher" or "lower"
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the simulator sees, measured with
// tracing off. Every one is positive on every workload (a bound is a share
// of the median, so a metric that can read 0 cannot carry one): request
// failures are reported as the attempted/failed counts of the result line,
// and the tail metric is clamped at 1 rather than at 0.
var endToEnd = []metricSpec{
	{Name: "sim_req_per_s", Unit: "req/s", Better: "higher", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.20},
	{Name: "alloc_b_per_req", Unit: "B/req", Better: "lower", Bound: 0.10},
	{Name: "energy_uj_per_req", Unit: "uJ/req", Better: "lower", Bound: 0.10},
	{Name: "tail_overshoot", Unit: "ratio", Better: "lower", Bound: 0.15},
}

// perLayer are the traced run's metrics. Spans are timed from outside, by
// wrapping the interfaces the fleet calls (see trace.go); share is a
// layer's self time over the traced wall-clock.
var perLayer = []metricSpec{
	{Name: "workload.next.calls", Unit: "count", Better: "lower"},
	{Name: "workload.next.self_s", Unit: "s", Better: "lower"},
	{Name: "workload.next.share", Unit: "ratio", Better: "lower"},
	{Name: "cluster.pick.calls", Unit: "count", Better: "lower"},
	{Name: "cluster.pick.self_s", Unit: "s", Better: "lower"},
	{Name: "cluster.pick.share", Unit: "ratio", Better: "lower"},
	{Name: "core.on_event.calls", Unit: "count", Better: "lower"},
	{Name: "core.on_event.self_s", Unit: "s", Better: "lower"},
	{Name: "core.on_event.share", Unit: "ratio", Better: "lower"},
	{Name: "core.observe.calls", Unit: "count", Better: "lower"},
	{Name: "core.observe.self_s", Unit: "s", Better: "lower"},
	{Name: "core.observe.share", Unit: "ratio", Better: "lower"},
	{Name: "core.slack.calls", Unit: "count", Better: "lower"},
	{Name: "core.slack.self_s", Unit: "s", Better: "lower"},
	{Name: "core.slack.share", Unit: "ratio", Better: "lower"},
	{Name: "core.on_tick.calls", Unit: "count", Better: "lower"},
	{Name: "core.on_tick.self_s", Unit: "s", Better: "lower"},
	{Name: "core.on_tick.share", Unit: "ratio", Better: "lower"},
	{Name: "core.on_tick.ns_per_call", Unit: "ns", Better: "lower"},
	{Name: "core.rebuilds", Unit: "count", Better: "lower"},
	{Name: "core.rebuild_skips", Unit: "count", Better: "higher"},
	{Name: "core.cache.lookups", Unit: "count", Better: "higher"},
	{Name: "core.cache.hits", Unit: "count", Better: "higher"},
	{Name: "core.cache.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "core.cache.collisions", Unit: "count", Better: "lower"},
	{Name: "core.cache.evictions", Unit: "count", Better: "lower"},
	{Name: "capping.allocate.calls", Unit: "count", Better: "lower"},
	{Name: "capping.allocate.self_s", Unit: "s", Better: "lower"},
	{Name: "capping.allocate.share", Unit: "ratio", Better: "lower"},
	{Name: "capping.level.calls", Unit: "count", Better: "lower"},
	{Name: "capping.level.self_s", Unit: "s", Better: "lower"},
	{Name: "capping.level.share", Unit: "ratio", Better: "lower"},
	{Name: "capping.throttles", Unit: "count", Better: "lower"},
	{Name: "capping.exceeded_ms", Unit: "ms", Better: "lower"},
	{Name: "capping.reallocations", Unit: "count", Better: "lower"},
	{Name: "capping.cap_changes", Unit: "count", Better: "lower"},
	{Name: "cluster.aggregate.self_s", Unit: "s", Better: "lower"},
	{Name: "cluster.aggregate.share", Unit: "ratio", Better: "lower"},
	{Name: "sim.residual_s", Unit: "s", Better: "lower"},
	{Name: "sim.residual_share", Unit: "ratio", Better: "lower"},
	{Name: "cluster.shard_speedup", Unit: "ratio", Better: "higher"},
	{Name: "trace.overhead", Unit: "ratio", Better: "lower"},
	{Name: "trace.clock_ns", Unit: "ns", Better: "lower"},
	{Name: "model.p50_ms", Unit: "ms", Better: "lower"},
	{Name: "model.p99_ms", Unit: "ms", Better: "lower"},
	{Name: "model.p999_ms", Unit: "ms", Better: "lower"},
	{Name: "model.samples", Unit: "count", Better: "higher"},
	{Name: "model.sim_s", Unit: "s", Better: "lower"},
}

// workloadByName looks a workload up in the registry.
func workloadByName(name string) (workloadSpec, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return workloadSpec{}, fmt.Errorf("unknown workload %q (%s)", name, strings.Join(names, ", "))
}

// printRegistry writes the workload and metric registry (-list).
func printRegistry(w io.Writer) {
	fmt.Fprintln(w, "workloads:")
	for _, wl := range workloads {
		fmt.Fprintf(w, "  %-8s %s\n", wl.Name, wl.Why)
	}
	fmt.Fprintln(w, "end-to-end metrics (untraced):")
	for _, m := range endToEnd {
		fmt.Fprintf(w, "  %-20s %-7s %-6s better, bound %g\n", m.Name, m.Unit, m.Better, m.Bound)
	}
	fmt.Fprintln(w, "per-layer metrics (-trace):")
	for _, m := range perLayer {
		fmt.Fprintf(w, "  %-26s %-6s %s better\n", m.Name, m.Unit, m.Better)
	}
}
