// Command e2e is the end-to-end fleet benchmark: it simulates four fleet
// workloads through cluster.RunFleet and reports simulated requests per
// host second, set-up time, memory, energy and tail fidelity, with an
// optional traced run that breaks the host wall-clock down by layer.
//
// Usage (from the repository root):
//
//	bash bench/e2e/run.sh [-workload NAME] [-seed N] [-seconds S] [-trace] [-out DIR] [-quick] [-list]
//
// or, inside bench/e2e, go run . with the same flags. Each workload runs
// in a child process (a re-exec of this binary), which isolates heap and
// GC state and gives each workload its own peak RSS. Every metric prints
// as "workload metric value unit"; the last line of standard output is one
// JSON object {"correct", "attempted", "failed", "metrics"} holding the
// end-to-end metrics, or with -trace the per-layer metrics. See README.md.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// childTimeout bounds one workload's child process.
const childTimeout = 170 * time.Second

func main() {
	os.Exit(run(normalizeArgs(os.Args[1:]), os.Stdout))
}

// normalizeArgs accepts "-trace 0" and "-trace 1" (a value in its own
// argument) as well as the flag package's "-trace" and "-trace=false".
func normalizeArgs(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) {
			if v, err := strconv.ParseBool(args[i+1]); err == nil {
				out = append(out, "-trace="+strconv.FormatBool(v))
				i++
				continue
			}
		}
		out = append(out, a)
	}
	return out
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("e2e", flag.ContinueOnError)
	var o options
	fs.Int64Var(&o.Seed, "seed", 42, "workload seed")
	fs.Float64Var(&o.Seconds, "seconds", 25, "measurement window per workload, in seconds")
	fs.BoolVar(&o.Trace, "trace", false, "add a traced one-shard run and report per-layer metrics")
	fs.BoolVar(&o.Quick, "quick", false, "tiny sizes (smoke test; numbers are not comparable)")
	name := fs.String("workload", "", "run one workload (default: all)")
	outDir := fs.String("out", "", "write <workload>.json (and <workload>.trace.json) result files here")
	list := fs.Bool("list", false, "print the workload and metric registry and exit")
	child := fs.Bool("child", false, "internal: measure one workload and print its report as JSON")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "e2e: unexpected arguments %q\n", fs.Args())
		return 2
	}
	if *list {
		printRegistry(stdout)
		return 0
	}
	if o.Seconds < 0 {
		fmt.Fprintln(os.Stderr, "e2e: -seconds must not be negative")
		return 2
	}
	selected := workloads
	if *name != "" {
		w, err := workloadByName(*name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "e2e:", err)
			return 2
		}
		selected = []workloadSpec{w}
	}
	if *child {
		if len(selected) != 1 {
			fmt.Fprintln(os.Stderr, "e2e: -child needs -workload")
			return 2
		}
		if err := json.NewEncoder(stdout).Encode(measure(selected[0], o)); err != nil {
			fmt.Fprintln(os.Stderr, "e2e:", err)
			return 1
		}
		return 0
	}

	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2e:", err)
		return 1
	}
	var reports []report
	for _, w := range selected {
		reports = append(reports, runChild(exe, w, o))
	}
	ok := emit(stdout, reports, o, len(selected) == 1)
	if *outDir != "" {
		if err := writeFiles(*outDir, reports, o); err != nil {
			fmt.Fprintln(os.Stderr, "e2e:", err)
			ok = false
		}
	}
	if !ok {
		return 1
	}
	return 0
}

// runChild measures one workload in a child process. A child that fails
// to report counts every offered request as failed.
func runChild(exe string, w workloadSpec, o options) report {
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, "-child", "-workload", w.Name,
		"-seed", strconv.FormatInt(o.Seed, 10),
		"-seconds", strconv.FormatFloat(o.Seconds, 'g', -1, 64),
		"-trace="+strconv.FormatBool(o.Trace),
		"-quick="+strconv.FormatBool(o.Quick))
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	err := cmd.Run()
	var rep report
	if err == nil {
		err = json.Unmarshal(out.Bytes(), &rep)
	}
	if err != nil {
		offered := int64(w.sized(o.Quick).offered())
		return report{
			Workload: w.Name, Seed: o.Seed, Metrics: map[string]float64{},
			Failures:  []string{fmt.Sprintf("child process: %v", err)},
			Attempted: offered, Failed: offered,
		}
	}
	return rep
}

// emit prints every metric as "workload metric value unit", the per-rep
// spread of the timed metrics, any gate failures, and the JSON result
// line. With one workload the JSON metric names are the registry's; with
// several they are prefixed "workload/". It reports whether every
// workload passed the gate.
func emit(w io.Writer, reports []report, o options, single bool) bool {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	result := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: true, Metrics: map[string]value{}}

	for _, rep := range reports {
		result.Attempted += rep.Attempted
		result.Failed += rep.Failed
		for _, f := range rep.Failures {
			fmt.Fprintf(w, "%s FAIL %s\n", rep.Workload, f)
			result.Correct = false
		}
		if len(rep.Failures) > 0 {
			continue
		}
		for _, m := range endToEnd {
			fmt.Fprintf(w, "%s %s %.6g %s\n", rep.Workload, m.Name, rep.Metrics[m.Name], m.Unit)
		}
		printSpread(w, rep)
		for _, m := range perLayer {
			if v, ok := rep.Layers[m.Name]; ok {
				fmt.Fprintf(w, "%s %s %.6g %s\n", rep.Workload, m.Name, v, m.Unit)
			}
		}
		reported, values := endToEnd, rep.Metrics
		if o.Trace {
			reported, values = perLayer, rep.Layers
		}
		for _, m := range reported {
			key := m.Name
			if !single {
				key = rep.Workload + "/" + key
			}
			result.Metrics[key] = value{Value: values[m.Name], Unit: m.Unit}
		}
	}
	if result.Attempted < 1 {
		result.Attempted = 1
		result.Correct = false
	}
	line, err := json.Marshal(result)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2e:", err)
		return false
	}
	fmt.Fprintln(w, string(line))
	return result.Correct
}

// printSpread reports the per-rep min/median/max of the timed metrics, so
// one invocation shows its own noise.
func printSpread(w io.Writer, rep report) {
	spread := func(name, unit string, v []float64) {
		lo, hi := v[0], v[0]
		for _, x := range v {
			lo, hi = min(lo, x), max(hi, x)
		}
		fmt.Fprintf(w, "%s %s.reps min %.6g median %.6g max %.6g %s (n=%d)\n",
			rep.Workload, name, lo, median(v), hi, unit, len(v))
	}
	rates := make([]float64, len(rep.Reps))
	for i, r := range rep.Reps {
		rates[i] = float64(r.Served) / r.WallS
	}
	spread("sim_req_per_s", "req/s", rates)
	spread("setup_s", "s", rep.SetupS)
}

// hostFacts describes the machine a result was measured on.
func hostFacts(seed int64) map[string]any {
	cpuModel := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpuModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"cpu_model":  cpuModel,
		"seed":       seed,
	}
}

// writeFiles writes one result file per workload with the end-to-end
// metrics, the raw per-rep values and the host facts, and with -trace one
// trace file per workload with the per-layer metrics.
func writeFiles(dir string, reports []report, o options) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	host := hostFacts(o.Seed)
	write := func(name string, metrics map[string]float64, specs []metricSpec, rep report, extra map[string]any) error {
		ms := map[string]any{}
		for _, m := range specs {
			if v, ok := metrics[m.Name]; ok {
				ms[m.Name] = map[string]any{"value": v, "unit": m.Unit}
			}
		}
		doc := map[string]any{
			"correct":   len(rep.Failures) == 0,
			"attempted": rep.Attempted,
			"failed":    rep.Failed,
			"metrics":   ms,
			"workload":  rep.Workload,
			"host":      host,
		}
		for k, v := range extra {
			doc[k] = v
		}
		b, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dir, name), append(b, '\n'), 0o644)
	}
	for _, rep := range reports {
		extra := map[string]any{"reps": rep.Reps, "setup_reps_s": rep.SetupS, "bound_ns": rep.BoundNs, "failures": rep.Failures}
		if err := write(rep.Workload+".json", rep.Metrics, endToEnd, rep, extra); err != nil {
			return err
		}
		if o.Trace {
			extra := map[string]any{"trace_reps": rep.Extra}
			if err := write(rep.Workload+".trace.json", rep.Layers, perLayer, rep, extra); err != nil {
				return err
			}
		}
	}
	return nil
}
