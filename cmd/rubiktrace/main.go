// Command rubiktrace generates, inspects and summarizes latency-critical
// request traces — the unit of reproducibility in this repository: every
// scheme in a comparison replays the same trace (paper Sec. 5.3).
//
// Usage:
//
//	rubiktrace -gen -app masstree -load 0.4 -n 9000 -seed 7 -out m40.jsonl
//	rubiktrace -gen -scenario diurnal -app xapian -n 100000 -out d.jsonl
//	rubiktrace -describe m40.jsonl
//	rubiktrace -apps
//	rubiktrace -scenarios
//
// -gen writes JSON Lines — a metadata header then one request per line —
// streamed straight from the source, so arbitrarily long exports run in
// constant memory. With -scenario the requests come from the named entry
// of the scenario registry (bursty MMPP, diurnal sinusoid, flash crowd,
// closed-loop clients, heavy-tailed/correlated slowdowns, ...); a
// closed-loop export holds only its open-loop prefix. -describe also
// reads legacy single-object JSON traces.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"rubik/internal/cpu"
	"rubik/internal/workload"
)

func main() {
	var (
		gen       = flag.Bool("gen", false, "generate a trace")
		describe  = flag.String("describe", "", "summarize a trace file")
		listApps  = flag.Bool("apps", false, "list available application models")
		listScens = flag.Bool("scenarios", false, "list available scenario shapes")
		appName   = flag.String("app", "masstree", "application model")
		scenario  = flag.String("scenario", "", "scenario shape (default: plain Poisson; see -scenarios)")
		load      = flag.Float64("load", 0.5, "load fraction of nominal capacity")
		n         = flag.Int("n", 0, "requests (0 = the app's Table 3 count)")
		seed      = flag.Int64("seed", 1, "random seed")
		out       = flag.String("out", "", "output file (default stdout)")
	)
	flag.Parse()

	switch {
	case *listApps:
		fmt.Printf("%-10s %-10s %-14s %s\n", "app", "requests", "mean service", "workload")
		for _, a := range workload.Apps() {
			fmt.Printf("%-10s %-10d %-14s %s\n", a.Name, a.Requests,
				fmt.Sprintf("%.3f ms", a.MeanServiceNsAtNominal()/1e6), a.Workload)
		}
	case *listScens:
		fmt.Printf("%-12s %s\n", "scenario", "description")
		for _, s := range workload.Scenarios() {
			fmt.Printf("%-12s %s\n", s.Name, s.Description)
		}
	case *gen:
		app, err := workload.AppByName(*appName)
		if err != nil {
			fatal(err)
		}
		count := *n
		if count == 0 {
			count = app.Requests
		}
		// The poisson scenario is the plain NewLoadSource stream.
		scName, srcName := *scenario, app.Name
		if scName == "" {
			scName = "poisson"
		} else {
			srcName += "/" + scName
		}
		src, err := workload.NewScenarioSource(scName, app, *load, count, *seed)
		if err != nil {
			fatal(err)
		}
		w := io.Writer(os.Stdout)
		var f *os.File
		if *out != "" {
			if f, err = os.Create(*out); err != nil {
				fatal(err)
			}
			w = f
		}
		written, err := workload.WriteJSONL(w, srcName, *seed, src)
		if err != nil {
			fatal(err)
		}
		if f != nil {
			if err := f.Close(); err != nil {
				fatal(err)
			}
		}
		warnShort(written, count)
	case *describe != "":
		f, err := os.Open(*describe)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		tr, err := workload.Load(f)
		if err != nil {
			fatal(err)
		}
		printStats(tr)
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func printStats(tr workload.Trace) {
	s := tr.Describe(cpu.NominalMHz)
	fmt.Printf("app            %s (seed %d)\n", tr.App, tr.Seed)
	fmt.Printf("requests       %d over %.3f s\n", s.Requests, float64(s.DurationNs)/1e9)
	fmt.Printf("offered load   %.1f%% of nominal capacity\n", s.OfferedLoad*100)
	fmt.Printf("service @2.4G  mean %.3f ms, cv %.2f, p50/p95/p99 %.3f/%.3f/%.3f ms\n",
		s.MeanServiceNs/1e6, s.CVService,
		s.P50ServiceNs/1e6, s.P95ServiceNs/1e6, s.P99ServiceNs/1e6)
	fmt.Printf("memory-bound   %.0f%% of work time\n", s.MemShare*100)
	fmt.Printf("interarrival   mean %.3f ms\n", s.MeanInterarrivalNs/1e6)
}

// warnShort flags exports that drained before the requested count.
// Closed-loop sources are the common case: they need completion feedback
// an exporter cannot give, so only their open-loop prefix (one request
// per client) can be captured — drive them live via the simulator entry
// points (rubik.Simulate with the source) instead.
func warnShort(written, requested int) {
	if written >= requested {
		return
	}
	fmt.Fprintf(os.Stderr,
		"rubiktrace: warning: source drained after %d of %d requests (closed-loop scenarios export only their open-loop prefix; simulate them live instead)\n",
		written, requested)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rubiktrace:", err)
	os.Exit(1)
}
