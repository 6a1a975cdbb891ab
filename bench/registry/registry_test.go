package registry

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestBaselineMatchesRegistry fails when the registry and the committed
// baseline drift apart: registry names must be unique, every registry
// entry must have a bench/baseline/BENCH_<name>.json file whose "name"
// field is <name>, and every baseline file must name a registry entry.
func TestBaselineMatchesRegistry(t *testing.T) {
	names := map[string]bool{}
	for _, bm := range All() {
		if names[bm.Name] {
			t.Errorf("registry name %q is not unique", bm.Name)
		}
		names[bm.Name] = true
	}
	files, err := filepath.Glob(filepath.Join("..", "baseline", "BENCH_*.json"))
	if err != nil {
		t.Fatal(err)
	}
	inBaseline := map[string]bool{}
	for _, f := range files {
		name := strings.TrimSuffix(strings.TrimPrefix(filepath.Base(f), "BENCH_"), ".json")
		inBaseline[name] = true
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		var rec struct {
			Name string `json:"name"`
		}
		if err := json.Unmarshal(data, &rec); err != nil {
			t.Errorf("%s: %v", f, err)
		} else if rec.Name != name {
			t.Errorf("%s records name %q, want %q", f, rec.Name, name)
		}
		if !names[name] {
			t.Errorf("%s has no registry entry", f)
		}
	}
	for name := range names {
		if !inBaseline[name] {
			t.Errorf("registry entry %q has no BENCH_%s.json in bench/baseline", name, name)
		}
	}
}
