package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"

	"rubik"
	"rubik/internal/cluster"
	"rubik/internal/workload"
)

const (
	// warmup is the completion-log prefix the pooled tails skip per core.
	warmup = 0.1
	// minReps is the repetition count a run reaches even when the
	// measurement window is shorter.
	minReps = 5
	// tracePairs is the number of plain/traced one-shard pairs -trace adds.
	tracePairs = 7
)

// options configures one measurement of one workload.
type options struct {
	Seed    int64
	Seconds float64
	Trace   bool
	Quick   bool
}

// repResult is one repetition: one fleet run plus its pooled aggregation.
type repResult struct {
	Shards         int     `json:"shards"`
	Traced         bool    `json:"traced"`
	WallS          float64 `json:"wall_s"`
	Offered        int     `json:"offered"`
	Served         int     `json:"served"`
	AllocBytes     uint64  `json:"alloc_bytes"`
	AllocBPerReq   float64 `json:"alloc_b_per_req"`
	EnergyUJPerReq float64 `json:"energy_uj_per_req"`
	TailRatio      float64 `json:"p95_over_bound"`
	Digest         string  `json:"digest"`
	CacheHits      int64   `json:"cache_hits"`
	Reallocations  int     `json:"reallocations"`
	CapChanges     int     `json:"cap_changes"`
	Err            string  `json:"error,omitempty"`
}

// report is everything one workload measurement produced.
type report struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	BoundNs   float64            `json:"bound_ns"`
	SetupS    []float64          `json:"setup_s"`
	Reps      []repResult        `json:"reps"`
	Extra     []repResult        `json:"trace_reps,omitempty"`
	Metrics   map[string]float64 `json:"metrics"`
	Layers    map[string]float64 `json:"layers,omitempty"`
	Failures  []string           `json:"failures,omitempty"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
}

func (r *report) fail(format string, args ...any) {
	r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
}

// tails are the pooled response quantiles of one run, in ns.
type tails struct{ p50, p95, p99, p999 float64 }

// aggregate computes the pooled tails: the post-run result aggregation a
// fleet user pays (a pooled sort over completion logs, or a histogram
// merge under streamed completions).
func aggregate(res cluster.FleetResult, tr *tracer) tails {
	t0 := time.Now()
	t := tails{
		p50:  res.TailNs(0.5, warmup),
		p95:  res.TailNs(0.95, warmup),
		p99:  res.TailNs(0.99, warmup),
		p999: res.TailNs(0.999, warmup),
	}
	if tr != nil {
		tr.agg.calls++
		tr.agg.timed(t0)
	}
	return t
}

// digest fingerprints what a correct simulation must reproduce exactly:
// each socket's served count, end time, energy, p95 and routing.
func digest(res cluster.FleetResult) string {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, s := range res.Sockets {
		put(uint64(s.Served()))
		put(uint64(s.EndTime))
		put(math.Float64bits(s.ActiveEnergyJ()))
		put(math.Float64bits(s.TotalEnergyJ()))
		put(math.Float64bits(s.TailNs(0.95, warmup)))
		for _, n := range s.Routed {
			put(uint64(n))
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// runRep simulates the workload once at the given shard count. Only the
// fleet run and the pooled aggregation are timed.
func runRep(w workloadSpec, seed int64, boundNs float64, shards int, tr *tracer) (repResult, cluster.FleetResult, tails) {
	r := repResult{Shards: shards, Traced: tr != nil, Offered: w.offered()}
	cfg, err := w.fleet(seed, boundNs, shards, tr)
	if err != nil {
		r.Err = err.Error()
		return r, cluster.FleetResult{}, tails{}
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	res, err := cluster.RunFleet(cfg)
	var tl tails
	if err == nil {
		tl = aggregate(res, tr)
	}
	r.WallS = time.Since(start).Seconds()
	runtime.ReadMemStats(&after)
	if err != nil {
		r.Err = err.Error()
		return r, res, tl
	}
	r.Served = res.Served()
	r.AllocBytes = after.TotalAlloc - before.TotalAlloc
	if r.Served > 0 {
		r.AllocBPerReq = float64(r.AllocBytes) / float64(r.Served)
	}
	r.EnergyUJPerReq = res.EnergyPerRequestJ() * 1e6
	r.TailRatio = tl.p95 / boundNs
	r.Digest = digest(res)
	r.CacheHits = res.TableCache.Hits
	if res.Hierarchy != nil {
		r.Reallocations = res.Hierarchy.Reallocations
		r.CapChanges = res.Hierarchy.LeafCapChanges
	}
	return r, res, tl
}

// setup is the work a repetition needs before its fleet runs: calibrating
// the latency bound (the p95 of fixed-nominal masstree at 50% load, as the
// paper defines it) and building the fleet configuration.
func setup(w workloadSpec, seed int64, shards int) (float64, error) {
	bound, err := rubik.TailBound(workload.Masstree(), seed)
	if err != nil {
		return 0, err
	}
	if _, err := w.fleet(seed, bound, shards, nil); err != nil {
		return 0, err
	}
	return bound, nil
}

// measure runs one workload: untraced repetitions at nproc shards until
// the measurement window closes, each preceded by a timed set-up, and with
// o.Trace tracePairs plain/traced pairs at one shard. It then applies the
// correctness gate.
func measure(w workloadSpec, o options) report {
	w = w.sized(o.Quick)
	rep := report{Workload: w.Name, Seed: o.Seed, Metrics: map[string]float64{}}
	shards := runtime.NumCPU()

	reps := minReps
	if o.Quick {
		reps = 2
	}
	window := time.Duration(o.Seconds * float64(time.Second))
	start := time.Now()
	for len(rep.Reps) < reps || time.Since(start) < window {
		// Set-up samples span the window like the repetitions do, so both
		// see the same host conditions.
		t0 := time.Now()
		bound, err := setup(w, o.Seed, shards)
		rep.SetupS = append(rep.SetupS, time.Since(t0).Seconds())
		if err != nil {
			rep.fail("setup: %v", err)
			rep.Attempted, rep.Failed = int64(w.offered()), int64(w.offered())
			return rep
		}
		rep.BoundNs = bound
		r, _, _ := runRep(w, o.Seed, rep.BoundNs, shards, nil)
		rep.Reps = append(rep.Reps, r)
		if r.Err != "" {
			break
		}
	}

	// One-shard pairs, alternating which side runs first, so both sides
	// sample the same stretches of host noise. Like throughput, the
	// overhead compares the fastest repetition of each side: per-pair
	// ratios swing by +-20% with the host.
	var layers []map[string]float64
	var plainWalls, tracedWalls []float64
	var clockNs float64
	if o.Trace {
		clockNs = calibrateClock()
		for i := 0; i < tracePairs; i++ {
			var plain, traced repResult
			var res cluster.FleetResult
			var tl tails
			tr := newTracer(w.Sockets, w.Cores)
			if i%2 == 0 {
				plain, _, _ = runRep(w, o.Seed, rep.BoundNs, 1, nil)
				traced, res, tl = runRep(w, o.Seed, rep.BoundNs, 1, tr)
			} else {
				traced, res, tl = runRep(w, o.Seed, rep.BoundNs, 1, tr)
				plain, _, _ = runRep(w, o.Seed, rep.BoundNs, 1, nil)
			}
			rep.Extra = append(rep.Extra, plain, traced)
			if plain.Err != "" || traced.Err != "" {
				break
			}
			plainWalls = append(plainWalls, plain.WallS)
			tracedWalls = append(tracedWalls, traced.WallS)
			layers = append(layers, layerMetrics(tr, res, tl, traced, clockNs))
		}
	}

	rep.gate(w)
	rep.endToEnd()
	if o.Trace && len(rep.Failures) == 0 {
		rep.Layers = meanMetrics(layers)
		rep.Layers["cluster.shard_speedup"] = minOf(plainWalls) / minOf(column(rep.Reps, wallS))
		rep.Layers["trace.overhead"] = minOf(tracedWalls)/minOf(plainWalls) - 1
		rep.Layers["trace.clock_ns"] = clockNs
	}
	return rep
}

// meanMetrics averages each metric over the traced runs (counts are
// identical across them; times are not).
func meanMetrics(runs []map[string]float64) map[string]float64 {
	out := map[string]float64{}
	for _, m := range runs {
		for k, v := range m {
			out[k] += v / float64(len(runs))
		}
	}
	return out
}

// gate is the correctness check: every repetition served every offered
// request with finite positive energy, all of them (1 or nproc shards,
// traced or not) reproduce one digest, and the workload's mechanism ran.
func (rep *report) gate(w workloadSpec) {
	all := append(append([]repResult(nil), rep.Reps...), rep.Extra...)
	for i, r := range all {
		rep.Attempted += int64(r.Offered)
		if r.Err != "" {
			rep.Failed += int64(r.Offered)
			rep.fail("run %d: %s", i, r.Err)
			continue
		}
		rep.Failed += int64(r.Offered - r.Served)
		if r.Served != r.Offered {
			rep.fail("run %d served %d of %d requests", i, r.Served, r.Offered)
		}
		if e := r.EnergyUJPerReq; e <= 0 || math.IsInf(e, 0) || math.IsNaN(e) {
			rep.fail("run %d: energy %v uJ/req", i, e)
		}
		if r.Digest != all[0].Digest {
			rep.fail("run %d (shards %d, traced %v) digest %s differs from %s",
				i, r.Shards, r.Traced, r.Digest, all[0].Digest)
		}
		if w.check != nil {
			if err := w.check(w, r); err != nil {
				rep.fail("run %d: %v", i, err)
			}
		}
	}
}

// endToEnd fills the untraced metrics from the nproc-shard repetitions.
// Throughput and set-up time come from the fastest sample: on a shared
// host the median sample drifts with other tenants' load far more than
// the fastest one does (README.md, "Noise"). Energy and tail are simulated
// quantities, identical in every repetition the gate accepts.
func (rep *report) endToEnd() {
	if len(rep.Reps) == 0 {
		return
	}
	first := rep.Reps[0]
	rep.Metrics["sim_req_per_s"] = float64(first.Served) / minOf(column(rep.Reps, wallS))
	rep.Metrics["setup_s"] = minOf(rep.SetupS)
	rep.Metrics["peak_rss_mb"] = peakRSSMB()
	rep.Metrics["alloc_b_per_req"] = median(column(rep.Reps, func(r repResult) float64 { return r.AllocBPerReq }))
	rep.Metrics["energy_uj_per_req"] = first.EnergyUJPerReq
	rep.Metrics["tail_overshoot"] = math.Max(1, first.TailRatio)
}

func wallS(r repResult) float64 { return r.WallS }

func column(reps []repResult, f func(repResult) float64) []float64 {
	v := make([]float64, len(reps))
	for i, r := range reps {
		v[i] = f(r)
	}
	return v
}

// layerMetrics derives the per-layer metrics of one traced one-shard run.
func layerMetrics(tr *tracer, res cluster.FleetResult, tl tails, traced repResult, clockNs float64) map[string]float64 {
	wall := traced.WallS
	m := map[string]float64{}
	var spans float64
	span := func(prefix string, l layer) float64 {
		self := l.selfNs(clockNs) / 1e9
		spans += self
		m[prefix+".calls"] = float64(l.calls)
		m[prefix+".self_s"] = self
		m[prefix+".share"] = self / wall
		return self
	}
	t := tr.layerTotals()
	span("workload.next", t.next)
	span("cluster.pick", t.pick)
	span("core.on_event", t.onEvent)
	span("core.observe", t.observe)
	span("core.slack", t.slack)
	m["core.on_tick.ns_per_call"] = 0
	if tick := span("core.on_tick", t.onTick); t.onTick.calls > 0 {
		m["core.on_tick.ns_per_call"] = tick * 1e9 / float64(t.onTick.calls)
	}
	span("capping.allocate", tr.allocate.load())
	span("capping.level", tr.levelAlloc.load())
	agg := tr.agg.selfNs(clockNs) / 1e9
	spans += agg
	m["cluster.aggregate.self_s"] = agg
	m["cluster.aggregate.share"] = agg / wall

	var rebuilds, skips int
	for _, sock := range tr.rubiks {
		for _, r := range sock {
			if r != nil {
				rebuilds += r.TableBuilds() - r.TableCacheHits()
				skips += r.TableSkips()
			}
		}
	}
	m["core.rebuilds"] = float64(rebuilds)
	m["core.rebuild_skips"] = float64(skips)
	c := res.TableCache
	m["core.cache.lookups"] = float64(c.Lookups())
	m["core.cache.hits"] = float64(c.Hits)
	m["core.cache.hit_ratio"] = c.HitRate()
	m["core.cache.collisions"] = float64(c.Collisions)
	m["core.cache.evictions"] = float64(c.Evictions)

	var throttles int
	var exceededNs int64
	for _, d := range res.Capping() {
		throttles += d.ThrottleEvents
		exceededNs += int64(d.CapExceededNs)
	}
	m["capping.throttles"] = float64(throttles)
	m["capping.exceeded_ms"] = float64(exceededNs) / 1e6
	m["capping.reallocations"] = float64(traced.Reallocations)
	m["capping.cap_changes"] = float64(traced.CapChanges)

	m["sim.residual_s"] = wall - spans
	m["sim.residual_share"] = (wall - spans) / wall

	m["model.p50_ms"] = tl.p50 / 1e6
	m["model.p99_ms"] = tl.p99 / 1e6
	m["model.p999_ms"] = tl.p999 / 1e6
	m["model.samples"] = float64(tailSamples(res))
	m["model.sim_s"] = float64(res.EndTime()) / 1e9
	return m
}

// tailSamples counts the responses behind the pooled tails: the
// post-warmup completion logs, or every request folded into the streamed
// histograms.
func tailSamples(res cluster.FleetResult) int {
	var n int
	for _, s := range res.Sockets {
		for _, c := range s.PerCore {
			if len(c.Completions) == 0 {
				n += c.Served
				continue
			}
			n += len(c.Completions) - int(warmup*float64(len(c.Completions)))
		}
	}
	return n
}

// peakRSSMB is this process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func minOf(v []float64) float64 {
	m := v[0]
	for _, x := range v {
		m = min(m, x)
	}
	return m
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}
