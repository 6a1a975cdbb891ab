// Command rubikbench runs the tracked hot-path micro-benchmarks of
// bench/registry — the table every benchmark body is written in once, and
// which `go test -bench Tracked` runs too — and emits one machine-readable
// BENCH_<name>.json file per benchmark, so the perf trajectory (event
// engine, core event cycle, table rebuild, convolution chain, per-event
// decision, cluster and fleet simulation) can be tracked across commits
// without scraping `go test -bench` text output.
//
// Usage:
//
//	rubikbench [-out dir] [-bench regexp] [-count n] [-list]
//	rubikbench -baseline dir   compare a fresh run against saved BENCH_*.json
//	rubikbench -baseline dir -gate 15   additionally exit 3 on a >15% ns/op regression
//	                                    or an allocation in a 0-allocs/op baseline
//
// -count n runs every selected benchmark n times and keeps the fastest
// run (minimum ns/op): the minimum estimates the noise floor of a shared
// runner far better than any single run, so CI feeds it to -gate to cut
// scheduling-jitter flakes. -gate needs -baseline and a value >= 0 (0,
// the default, is off); anything else is a usage error (exit 1), so a
// typo cannot silently disable the gate.
//
// The repo commits a reference run under bench/baseline (see its
// README), so `rubikbench -baseline bench/baseline` diffs the working
// tree against the last recorded trajectory point without hunting for
// CI artifacts; CI runs that diff with -gate 15, annotates the build on
// ns/op regressions and fails it on allocation regressions (allocation
// counts are deterministic, runner timings are not).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"rubik/bench/registry"
)

// result is the JSON schema of one BENCH_*.json file.
type result struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// loadBaseline reads BENCH_<name>.json files from a directory (or one
// file), keyed by benchmark name.
func loadBaseline(path string) (map[string]result, error) {
	st, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	files := []string{path}
	if st.IsDir() {
		files, err = filepath.Glob(filepath.Join(path, "BENCH_*.json"))
		if err != nil {
			return nil, err
		}
		if len(files) == 0 {
			return nil, fmt.Errorf("no BENCH_*.json files in %s", path)
		}
	}
	base := map[string]result{}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r result
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		if r.Name == "" {
			return nil, fmt.Errorf("%s: missing benchmark name", f)
		}
		base[r.Name] = r
	}
	return base, nil
}

// deltaPct formats the relative change from base to cur ("-25.0%").
func deltaPct(base, cur float64) string {
	if base == 0 {
		if cur == 0 {
			return "±0.0%"
		}
		return "new"
	}
	return fmt.Sprintf("%+.1f%%", 100*(cur-base)/base)
}

// compare diffs a fresh result against the baseline. It returns the
// "vs baseline" report line and, with gate > 0, the ns/op regression
// (more than gate percent slower) and the allocation regression (any
// allocation where the baseline reports 0 allocs/op) it finds; each is
// "" when there is none.
func compare(cur result, base map[string]result, gate float64) (line, regression, allocRegression string) {
	b, ok := base[cur.Name]
	if !ok {
		return fmt.Sprintf("%-24s (not in baseline)", "  vs baseline"), "", ""
	}
	line = fmt.Sprintf("%-24s %12.0f ns/op (%s) %15d allocs/op (%s)",
		"  vs baseline", b.NsPerOp, deltaPct(b.NsPerOp, cur.NsPerOp),
		b.AllocsPerOp, deltaPct(float64(b.AllocsPerOp), float64(cur.AllocsPerOp)))
	if gate <= 0 {
		return line, "", ""
	}
	if b.NsPerOp > 0 {
		if pct := 100 * (cur.NsPerOp - b.NsPerOp) / b.NsPerOp; pct > gate {
			regression = fmt.Sprintf("%s: %.0f -> %.0f ns/op (%+.1f%%, gate %.1f%%)",
				cur.Name, b.NsPerOp, cur.NsPerOp, pct, gate)
		}
	}
	if b.AllocsPerOp == 0 && cur.AllocsPerOp > 0 {
		allocRegression = fmt.Sprintf("%s: 0 -> %d allocs/op (%d B/op)",
			cur.Name, cur.AllocsPerOp, cur.BytesPerOp)
	}
	return line, regression, allocRegression
}

// measure runs bm count times and keeps the fastest run.
func measure(bm registry.Bench, count int) (result, error) {
	var res result
	for c := 0; c < count; c++ {
		r := testing.Benchmark(bm.Fn)
		// testing.Benchmark discards b.Fatal output and returns a zero
		// result; surface that as a failure instead of emitting NaNs.
		if r.N == 0 {
			return result{}, fmt.Errorf("benchmark %s failed (zero iterations)", bm.Name)
		}
		cur := result{
			Name:        bm.Name,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		}
		if c == 0 || cur.NsPerOp < res.NsPerOp {
			res = cur
		}
	}
	return res, nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is rubikbench with its arguments and output streams; it returns the
// exit status: 0 success, 1 usage or run error, 2 unparsable flags, 3 a
// tripped gate.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rubikbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	out := fs.String("out", ".", "directory to write BENCH_<name>.json files to")
	pattern := fs.String("bench", ".", "regexp selecting benchmarks to run")
	list := fs.Bool("list", false, "list benchmark names and exit")
	baseline := fs.String("baseline", "", "BENCH_*.json dir (or one file) to diff the fresh run against")
	gate := fs.Float64("gate", 0, "with -baseline: exit 3 when any benchmark regresses more than this percent in ns/op, or allocates where its baseline does not (0 = off)")
	count := fs.Int("count", 1, "runs per benchmark; the minimum-ns/op run is recorded")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	gateSet := false
	fs.Visit(func(f *flag.Flag) { gateSet = gateSet || f.Name == "gate" })
	fail := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "rubikbench: "+format+"\n", a...)
		return 1
	}
	switch {
	case *count < 1:
		return fail("-count must be >= 1, got %d", *count)
	case !(*gate >= 0):
		return fail("-gate must be >= 0, got %v", *gate)
	case gateSet && *baseline == "":
		return fail("-gate needs -baseline")
	}

	re, err := regexp.Compile(*pattern)
	if err != nil {
		return fail("bad -bench pattern: %v", err)
	}
	if *list {
		for _, bm := range registry.All() {
			fmt.Fprintln(stdout, bm.Name)
		}
		return 0
	}
	var base map[string]result
	if *baseline != "" {
		if base, err = loadBaseline(*baseline); err != nil {
			return fail("-baseline: %v", err)
		}
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return fail("%v", err)
	}
	ran := 0
	var regressions, allocRegressions []string
	for _, bm := range registry.All() {
		if !re.MatchString(bm.Name) {
			continue
		}
		ran++
		res, err := measure(bm, *count)
		if err != nil {
			return fail("%v", err)
		}
		data, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return fail("%v", err)
		}
		path := filepath.Join(*out, "BENCH_"+bm.Name+".json")
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			return fail("%v", err)
		}
		fmt.Fprintf(stdout, "%-24s %12.0f ns/op %8d B/op %6d allocs/op  -> %s\n",
			bm.Name, res.NsPerOp, res.BytesPerOp, res.AllocsPerOp, path)
		if base != nil {
			line, reg, allocReg := compare(res, base, *gate)
			fmt.Fprintln(stdout, line)
			if reg != "" {
				regressions = append(regressions, reg)
			}
			if allocReg != "" {
				allocRegressions = append(allocRegressions, allocReg)
			}
		}
	}
	if ran == 0 {
		return fail("no benchmarks match %q", *pattern)
	}
	for _, r := range regressions {
		fmt.Fprintf(stderr, "rubikbench: regression: %s\n", r)
	}
	for _, r := range allocRegressions {
		fmt.Fprintf(stderr, "rubikbench: alloc regression: %s\n", r)
	}
	if len(regressions) > 0 || len(allocRegressions) > 0 {
		return 3
	}
	return 0
}
