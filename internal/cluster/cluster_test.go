package cluster

import (
	"math"
	"reflect"
	"testing"

	rubikcore "rubik/internal/core"
	"rubik/internal/cpu"
	"rubik/internal/queueing"
	"rubik/internal/workload"
)

func testTrace(load float64, n int, seed int64) workload.Trace {
	return workload.GenerateAtLoad(workload.Masstree(), load, n, seed)
}

func fixedCfg(cores int, d Dispatcher) Config {
	return Config{
		Cores:      cores,
		Dispatcher: d,
		Core:       queueing.DefaultConfig(),
		NewPolicy: func(int) (queueing.Policy, error) {
			return queueing.FixedPolicy{MHz: cpu.NominalMHz}, nil
		},
	}
}

func rubikCfg(cores int, d Dispatcher, boundNs float64) Config {
	cfg := fixedCfg(cores, d)
	cfg.NewPolicy = func(int) (queueing.Policy, error) {
		return rubikcore.New(rubikcore.DefaultConfig(boundNs))
	}
	return cfg
}

// TestClusterDeterministic is the acceptance check for dispatch
// determinism: two runs of the same trace under the same configuration —
// including the stateful random and round-robin dispatchers, which Run
// resets — produce identical Results, per-core Rubik controllers
// included.
func TestClusterDeterministic(t *testing.T) {
	tr := testTrace(0.5*4, 2000, 11)
	for _, d := range Dispatchers(99) {
		a, err := Run(tr, rubikCfg(4, d, 500_000))
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(tr, rubikCfg(4, d, 500_000))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: repeated runs differ", d.Name())
		}
	}
}

// TestSingleCoreClusterMatchesRun anchors the cluster to the extracted
// single-core loop: a 1-core cluster must reproduce queueing.Run exactly
// (every dispatcher degenerates to the identity on one core).
func TestSingleCoreClusterMatchesRun(t *testing.T) {
	tr := testTrace(0.5, 2000, 7)
	want, err := queueing.Run(tr, queueing.FixedPolicy{MHz: cpu.NominalMHz}, queueing.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range Dispatchers(3) {
		got, err := Run(tr, fixedCfg(1, d))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.PerCore[0], want) {
			t.Errorf("%s: 1-core cluster differs from queueing.Run", d.Name())
		}
	}
}

func TestJSQTieBreaking(t *testing.T) {
	d := NewJSQ()
	req := workload.Request{}
	// All queues equal: the lowest index must win.
	equal := []CoreState{{Index: 0, QueueLen: 2}, {Index: 1, QueueLen: 2}, {Index: 2, QueueLen: 2}}
	if i := d.Pick(req, equal); i != 0 {
		t.Errorf("all-equal tie broke to %d, want 0", i)
	}
	// A strict minimum wins regardless of position.
	min2 := []CoreState{{QueueLen: 3}, {QueueLen: 4}, {QueueLen: 1}, {QueueLen: 3}}
	if i := d.Pick(req, min2); i != 2 {
		t.Errorf("minimum at 2, picked %d", i)
	}
	// Tie between a subset: the lowest-indexed of the tied cores wins, not
	// a later equally-short one.
	tied := []CoreState{{QueueLen: 5}, {QueueLen: 1}, {QueueLen: 1}, {QueueLen: 1}}
	if i := d.Pick(req, tied); i != 1 {
		t.Errorf("tied minimum broke to %d, want 1", i)
	}
	// LeastWork ties break the same way.
	lw := NewLeastWork()
	work := []CoreState{{PendingWorkNs: 100}, {PendingWorkNs: 40}, {PendingWorkNs: 40}}
	if i := lw.Pick(req, work); i != 1 {
		t.Errorf("least-work tie broke to %d, want 1", i)
	}
}

func TestRoundRobinCoverage(t *testing.T) {
	tr := testTrace(0.5*3, 900, 5)
	res, err := Run(tr, fixedCfg(3, NewRoundRobin()))
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range res.Routed {
		if n != 300 {
			t.Errorf("core %d served %d requests, want exactly 300", i, n)
		}
	}
	var total int
	for _, c := range res.PerCore {
		total += len(c.Completions)
	}
	if total != len(tr.Requests) {
		t.Fatalf("completions %d != requests %d", total, len(tr.Requests))
	}
}

// TestClusterBalancesTail checks the queueing-theory basics: at equal
// aggregate load, JSQ's pooled tail is no worse than random dispatch
// (routing-aware beats routing-blind).
func TestClusterBalancesTail(t *testing.T) {
	tr := testTrace(0.6*4, 6000, 21)
	rnd, err := Run(tr, fixedCfg(4, NewRandom(1)))
	if err != nil {
		t.Fatal(err)
	}
	jsq, err := Run(tr, fixedCfg(4, NewJSQ()))
	if err != nil {
		t.Fatal(err)
	}
	if jsq.TailNs(0.95, 0) > rnd.TailNs(0.95, 0) {
		t.Errorf("JSQ tail %.0f ns above random %.0f ns",
			jsq.TailNs(0.95, 0), rnd.TailNs(0.95, 0))
	}
}

// TestClusterRubikHoldsBound runs the paper-shaped configuration — a
// 6-core server with a fresh Rubik controller per core — and checks the
// pooled tail stays near the single-core bound under JSQ dispatch.
func TestClusterRubikHoldsBound(t *testing.T) {
	app := workload.Masstree()
	// Single-core bound: p95 of fixed-nominal at 50% load.
	btr := workload.GenerateAtLoad(app, 0.5, 3000, 1)
	bres, err := queueing.Run(btr, queueing.FixedPolicy{MHz: cpu.NominalMHz}, queueing.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	bound := bres.TailNs(0.95, 0)

	tr := workload.GenerateAtLoad(app, 0.5*6, 12000, 2)
	res, err := Run(tr, rubikCfg(6, NewJSQ(), bound))
	if err != nil {
		t.Fatal(err)
	}
	if tail := res.TailNs(0.95, 0.1); tail > bound*1.15 {
		t.Errorf("pooled p95 %.0f ns above bound %.0f ns", tail, bound)
	}
	// Rubik must actually save energy against fixed-nominal on the same
	// cluster.
	fixed, err := Run(tr, fixedCfg(6, NewJSQ()))
	if err != nil {
		t.Fatal(err)
	}
	if res.EnergyPerRequestJ() >= fixed.EnergyPerRequestJ() {
		t.Errorf("Rubik %.3g J/req not below fixed %.3g J/req",
			res.EnergyPerRequestJ(), fixed.EnergyPerRequestJ())
	}
}

func TestClusterValidation(t *testing.T) {
	tr := testTrace(0.5, 100, 1)
	if _, err := Run(tr, Config{Cores: 0}); err == nil {
		t.Error("0 cores must error")
	}
	cfg := fixedCfg(2, nil) // nil dispatcher defaults to round-robin
	cfg.NewPolicy = nil
	if _, err := Run(tr, cfg); err == nil {
		t.Error("nil policy factory must error")
	}
	res, err := Run(tr, fixedCfg(2, nil))
	if err != nil {
		t.Fatal(err)
	}
	if res.Dispatcher != "roundrobin" {
		t.Errorf("default dispatcher %q, want roundrobin", res.Dispatcher)
	}
}

type badDispatcher struct{}

func (badDispatcher) Name() string                           { return "bad" }
func (badDispatcher) Reset()                                 {}
func (badDispatcher) Pick(workload.Request, []CoreState) int { return 99 }

// TestClusterBadDispatcherErrors pins the contract that an out-of-range
// pick fails the run instead of silently skewing results.
func TestClusterBadDispatcherErrors(t *testing.T) {
	tr := testTrace(0.5, 50, 1)
	if _, err := Run(tr, fixedCfg(2, badDispatcher{})); err == nil {
		t.Fatal("out-of-range dispatcher pick must error")
	}
}

func TestClusterPooledMetrics(t *testing.T) {
	tr := testTrace(0.5*2, 1000, 9)
	res, err := Run(tr, fixedCfg(2, NewRoundRobin()))
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Served(); got != len(tr.Requests) {
		t.Fatalf("served %d != %d", got, len(tr.Requests))
	}
	if e := res.EnergyPerRequestJ(); e <= 0 || math.IsNaN(e) {
		t.Errorf("bad energy/request %v", e)
	}
	if b := res.MeanBusyCores(); b <= 0 || b > 2 {
		t.Errorf("mean busy cores %v out of range", b)
	}
}
