package cluster

import (
	"reflect"
	"testing"

	"rubik/internal/capping"
	"rubik/internal/queueing"
	"rubik/internal/workload"
)

// loggingPolicy switches frequency with queue depth and keeps its own
// plain-append log of the completions it observes: the reference the
// socket's completion arena must reproduce.
type loggingPolicy struct {
	log []queueing.Completion
}

func (p *loggingPolicy) Name() string { return "logging" }

func (p *loggingPolicy) OnEvent(v queueing.View) int {
	return [...]int{1600, 2400, 3400}[len(v.Queue)%3]
}

func (p *loggingPolicy) ObserveCompletion(c queueing.Completion) { p.log = append(p.log, c) }

// logFleet attaches a loggingPolicy to every core of cfg and returns
// them, indexed [socket][core]. Each shard goroutine writes only its own
// sockets' entries, and RunFleet returns after every shard is done.
func logFleet(cfg *FleetConfig) [][]*loggingPolicy {
	logs := make([][]*loggingPolicy, cfg.Sockets)
	for s := range logs {
		logs[s] = make([]*loggingPolicy, cfg.CoresPerSocket)
	}
	cfg.NewPolicy = func(s, c int) (queueing.Policy, error) {
		logs[s][c] = &loggingPolicy{}
		return logs[s][c], nil
	}
	return logs
}

// checkLogs asserts every core's completion log equals its policy's.
func checkLogs(t *testing.T, res FleetResult, logs [][]*loggingPolicy) {
	t.Helper()
	if res.Served() == 0 {
		t.Fatal("the run served nothing")
	}
	for s, sock := range res.Sockets {
		for c, r := range sock.PerCore {
			if !reflect.DeepEqual(r.Completions, logs[s][c].log) {
				t.Fatalf("socket %d core %d: log of %d records differs from the %d observed",
					s, c, len(r.Completions), len(logs[s][c].log))
			}
			if cap(r.Completions) != len(r.Completions) {
				t.Fatalf("socket %d core %d: log cap %d exceeds len %d", s, c, cap(r.Completions), len(r.Completions))
			}
		}
	}
}

// TestArenaLogsMatchAppend pins each core's arena-backed completion log
// to a plain-append reference under every dispatcher, at one and two
// shards: JSQ and least-work skew the per-core counts, random and
// round-robin interleave the cores' chunk claims.
func TestArenaLogsMatchAppend(t *testing.T) {
	for _, d := range []string{"random", "roundrobin", "jsq", "leastwork"} {
		for _, shards := range []int{1, 2} {
			cfg := fleetConfig(t, "bursty", d, 3, 6, 900, 0, shards)
			logs := logFleet(&cfg)
			res, err := RunFleet(cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkLogs(t, res, logs)
		}
	}
}

// TestArenaLogsMatchAppendCapped is the same pin under a capped budget
// tree, whose epoch barriers split every socket's run into phases.
func TestArenaLogsMatchAppendCapped(t *testing.T) {
	spec := capping.HierarchySpec{Levels: []capping.LevelSpec{
		{Name: "rack", Nodes: 1, CapW: 30},
		{Name: "pdu", Nodes: 2, Oversub: 1.1},
	}}
	cfg := hierFleetConfig(t, "heavytail", 3, 4, 600, 2, spec, 5)
	logs := logFleet(&cfg)
	res, err := RunFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkLogs(t, res, logs)
}

// lowLen under-reports a source's length by a factor.
type lowLen struct {
	workload.Source
	div int
}

func (s lowLen) Len() int { return s.Source.Len() / s.div }

// TestArenaEdgeCases covers a socket with idle cores (more cores than
// requests), a source whose Len under-reports, and a single-core socket,
// and checks that appending to one core's returned log leaves the next
// core's records intact.
func TestArenaEdgeCases(t *testing.T) {
	app := workload.Masstree()
	run := func(t *testing.T, cores int, src workload.Source) (Result, []*loggingPolicy) {
		t.Helper()
		pols := make([]*loggingPolicy, cores)
		cfg := DefaultConfig()
		cfg.Cores = cores
		cfg.NewPolicy = func(i int) (queueing.Policy, error) {
			pols[i] = &loggingPolicy{}
			return pols[i], nil
		}
		res, err := RunSource(src, cfg)
		if err != nil {
			t.Fatal(err)
		}
		checkLogs(t, FleetResult{Sockets: []Result{res}}, [][]*loggingPolicy{pols})
		return res, pols
	}
	t.Run("idle cores", func(t *testing.T) {
		tr := workload.GenerateAtLoad(app, 0.5, 3, 1)
		res, _ := run(t, 6, workload.NewTraceSource(tr))
		if res.PerCore[5].Completions != nil {
			t.Fatal("a core that served nothing has a non-nil log")
		}
	})
	for _, div := range []int{1 << 30, 7} {
		t.Run("low Len", func(t *testing.T) {
			run(t, 4, lowLen{Source: workload.NewLoadSource(app, 2, 2000, 3), div: div})
		})
	}
	t.Run("single core", func(t *testing.T) {
		run(t, 1, workload.NewLoadSource(app, 0.5, 500, 2))
	})
	t.Run("append does not overwrite", func(t *testing.T) {
		res, pols := run(t, 3, workload.NewLoadSource(app, 1.5, 1000, 4))
		_ = append(res.PerCore[0].Completions, queueing.Completion{ID: -1})
		_ = append(res.PerCore[1].Completions, queueing.Completion{ID: -2})
		checkLogs(t, FleetResult{Sockets: []Result{res}}, [][]*loggingPolicy{pols})
	})
}
