package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rubik/bench/registry"
)

func TestCompare(t *testing.T) {
	base := map[string]result{
		"Slow":  {Name: "Slow", NsPerOp: 100, AllocsPerOp: 3},
		"Clean": {Name: "Clean", NsPerOp: 100, AllocsPerOp: 0},
	}
	cases := []struct {
		name          string
		cur           result
		gate          float64
		line          string // substring of the report line
		reg, allocReg string // substrings; "" means none
	}{
		{"ns/op above gate", result{Name: "Slow", NsPerOp: 120, AllocsPerOp: 3}, 15,
			"(+20.0%)", "Slow: 100 -> 120 ns/op (+20.0%, gate 15.0%)", ""},
		{"ns/op within gate", result{Name: "Slow", NsPerOp: 114, AllocsPerOp: 9}, 15,
			"(+14.0%)", "", ""},
		{"0 -> N allocs", result{Name: "Clean", NsPerOp: 90, AllocsPerOp: 2, BytesPerOp: 64}, 15,
			"(new)", "", "Clean: 0 -> 2 allocs/op (64 B/op)"},
		{"both", result{Name: "Clean", NsPerOp: 200, AllocsPerOp: 1, BytesPerOp: 8}, 15,
			"(+100.0%)", "Clean: 100 -> 200 ns/op", "Clean: 0 -> 1 allocs/op (8 B/op)"},
		{"gate off", result{Name: "Clean", NsPerOp: 200, AllocsPerOp: 1}, 0,
			"(+100.0%)", "", ""},
		{"not in baseline", result{Name: "Fresh", NsPerOp: 1e9, AllocsPerOp: 7}, 15,
			"(not in baseline)", "", ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			line, reg, allocReg := compare(tc.cur, base, tc.gate)
			if !strings.Contains(line, tc.line) {
				t.Errorf("line %q does not contain %q", line, tc.line)
			}
			for _, c := range []struct{ what, got, want string }{
				{"regression", reg, tc.reg},
				{"alloc regression", allocReg, tc.allocReg},
			} {
				if (c.want == "") != (c.got == "") || !strings.Contains(c.got, c.want) {
					t.Errorf("%s = %q, want %q", c.what, c.got, c.want)
				}
			}
		})
	}
}

func TestLoadBaselineErrors(t *testing.T) {
	write := func(dir, name, body string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	empty := t.TempDir()
	badJSON := t.TempDir()
	write(badJSON, "BENCH_A.json", `{"name": "A",`)
	noName := t.TempDir()
	write(noName, "BENCH_A.json", `{"ns_per_op": 5}`)
	for _, tc := range []struct{ name, path, want string }{
		{"missing path", filepath.Join(empty, "nope"), "no such file"},
		{"empty directory", empty, "no BENCH_*.json files"},
		{"bad JSON", badJSON, "BENCH_A.json: unexpected end of JSON input"},
		{"missing name", noName, "BENCH_A.json: missing benchmark name"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := loadBaseline(tc.path)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("loadBaseline(%s) = %v, want error containing %q", tc.path, err, tc.want)
			}
		})
	}

	ok := t.TempDir()
	write(ok, "BENCH_A.json", `{"name": "A", "ns_per_op": 5, "allocs_per_op": 1}`)
	base, err := loadBaseline(ok)
	if err != nil {
		t.Fatal(err)
	}
	if got := base["A"]; got.NsPerOp != 5 || got.AllocsPerOp != 1 {
		t.Fatalf("loaded %+v", got)
	}
}

// TestUsageErrors pins the flag combinations that would otherwise run
// without a working gate: each must exit 1 before any benchmark runs.
// Each run selects no benchmark and writes under a temporary directory,
// so a check that stops firing fails on its message instead of running
// the suite.
func TestUsageErrors(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-gate", "15"}, "-gate needs -baseline"},
		{[]string{"-gate", "0"}, "-gate needs -baseline"},
		{[]string{"-baseline", dir, "-gate", "-5"}, "-gate must be >= 0"},
		{[]string{"-baseline", dir, "-gate", "NaN"}, "-gate must be >= 0"},
		{[]string{"-count", "0"}, "-count must be >= 1"},
		{[]string{"-bench", "("}, "bad -bench pattern"},
		{[]string{"-baseline", dir}, "no BENCH_*.json files"},
	} {
		var stdout, stderr bytes.Buffer
		args := append([]string{"-out", dir, "-bench", "^$"}, tc.args...)
		if code := run(args, &stdout, &stderr); code != 1 || !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("run(%q) = %d, stderr %q; want 1 and %q", tc.args, code, stderr.String(), tc.want)
		}
		if stdout.Len() != 0 {
			t.Errorf("run(%q) wrote %q to stdout", tc.args, stdout.String())
		}
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-nosuchflag"}, &stdout, &stderr); code != 2 {
		t.Errorf("unknown flag exits %d, want 2", code)
	}
}

func TestList(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-list exits %d: %s", code, stderr.String())
	}
	var want []string
	for _, bm := range registry.All() {
		want = append(want, bm.Name)
	}
	if got := strings.Fields(stdout.String()); strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("-list printed %q, want %q", got, want)
	}
}
