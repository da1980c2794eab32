package main

import (
	"encoding/json"
	"maps"
	"os"
	"runtime"
	"slices"
	"testing"
	"time"
)

type benchFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// TestBenchmarkJSONMatches checks that BENCHMARK.json lists exactly the
// workloads and metrics this program runs and reports, with the same
// units.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range f.Workloads {
		names = append(names, w.Name)
	}
	if want := slices.Sorted(maps.Keys(workloads)); !slices.Equal(slices.Sorted(slices.Values(names)), want) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, want)
	}
	for _, tc := range []struct {
		name string
		json []struct{ Name, Unit string }
		prog []metricSpec
	}{{"end_to_end", f.EndToEnd, endToEnd}, {"per_layer", f.PerLayer, perLayer}} {
		if len(tc.json) != len(tc.prog) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program reports %d", tc.name, len(tc.json), len(tc.prog))
			continue
		}
		for i, m := range tc.json {
			if p := tc.prog[i]; m.Name != p.name || m.Unit != p.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), program has %s (%s)", tc.name, i, m.Name, m.Unit, p.name, p.unit)
			}
		}
	}
}

// TestWorkloadsRunClean runs every workload briefly, untraced and traced,
// and checks that no correctness check fails and every metric is there.
func TestWorkloadsRunClean(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload for a second each")
	}
	for _, name := range slices.Sorted(maps.Keys(workloads)) {
		for _, trace := range []bool{false, true} {
			c := &cfg{workload: name, seed: 3, seconds: 1, trace: trace, out: t.TempDir(),
				clients: runtime.GOMAXPROCS(0), clk: clock{base: time.Now()}}
			o := workloads[name](c)
			if o.fails.n != 0 || o.attempted < 1 {
				t.Errorf("%s trace=%v: %d of %d ops failed: %v", name, trace, o.fails.n, o.attempted, o.fails.messages())
			}
			specs := endToEnd
			if trace {
				specs = perLayer
			}
			for _, s := range specs {
				v, ok := o.metrics[s.name]
				if !trace && (!ok || v <= 0) {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, s.name, v)
				}
			}
			if trace && o.metrics["control.ops_per_s"] <= 0 {
				t.Errorf("%s: control.ops_per_s = %v", name, o.metrics["control.ops_per_s"])
			}
		}
	}
}
