package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// tinySizes shrink every workload to seconds. Every largest job spans at
// least two nodes, which the layer pass's Shrink needs, and the storm keeps
// 27 ranks on 9 nodes: the seed-12 wave needs the nodes, not the elements.
var tinySizes = map[string]sizes{
	"weak-rd":        {Ranks: []int{1, 8}, PerRankN: 3, Steps: 3, RanksPerNode: 4},
	"steady-ns":      {Ranks: []int{1, 8}, PerRankN: 3, Steps: 4, RanksPerNode: 4},
	"storm-recovery": {Ranks: []int{1, 27}, PerRankN: 3, Steps: 8, RanksPerNode: 3},
}

// TestSmoke runs every workload untraced and traced, plus its layer pass,
// at tiny sizes: the correctness checks pass, every end-to-end metric
// prints with its unit and is nonzero, and every span records a call.
func TestSmoke(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			sz := tinySizes[name]
			var plain []*iterResult
			for i := 0; i < 2; i++ {
				it, err := timedRun("plain", name, sz, 7, nil)
				if err != nil {
					t.Fatal(err)
				}
				plain = append(plain, it)
			}
			traced, err := timedRun("traced", name, sz, 7, newTracer())
			if err != nil {
				t.Fatal(err)
			}
			layers, err := timedRun("layers", name, sz, 7, newTracer())
			if err != nil {
				t.Fatal(err)
			}

			e2e, err := reduce(name, 7, plain, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			per, err := reduce(name, 7, plain, []*iterResult{traced}, layers)
			if err != nil {
				t.Fatal(err)
			}
			for _, res := range []*result{e2e, per} {
				if res.failed != 0 {
					t.Errorf("%d of %d checks failed: %v", res.failed, res.attempted, res.failures)
				}
			}
			var out bytes.Buffer
			e2e.print(&out)
			for _, m := range append(endToEnd, wastedMetric) {
				if !strings.Contains(out.String(), m.name) || !strings.Contains(out.String(), m.unit) {
					t.Errorf("%s (%s) not printed:\n%s", m.name, m.unit, out.String())
				}
			}
			for _, m := range endToEnd {
				if e2e.metrics[m.name] <= 0 {
					t.Errorf("%s = %v, want > 0", m.name, e2e.metrics[m.name])
				}
			}
			for _, s := range spanNames {
				if per.metrics[s+".calls"] < 1 {
					t.Errorf("span %s recorded no call", s)
				}
			}
			for _, c := range []string{"mp.messages", "sparse.halo_exchanges", "obs.journal_lines", "checkpoint.bytes"} {
				if per.metrics[c] <= 0 {
					t.Errorf("counter %s = %v, want > 0", c, per.metrics[c])
				}
			}
			if name == "storm-recovery" && per.metrics["bench.attempts"] < 3 {
				t.Errorf("storm ran %v supervised attempts, want >= 3", per.metrics["bench.attempts"])
			}
		})
	}
}

// TestNamesMatchBenchmarkJSON keeps the printed metrics and the gated
// declaration in step.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json next to the benchmark:", err)
	}
	var decl struct {
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
		Workloads []struct{ Name string }       `json:"workloads"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []metric, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: benchmark prints %d metrics, BENCHMARK.json declares %d", what, len(got), len(want))
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s %d: prints %s (%s), declared %s (%s)", what, i, got[i].name, got[i].unit, want[i].Name, want[i].Unit)
			}
		}
	}
	same("end_to_end", endToEnd, decl.EndToEnd)
	same("per_layer", perLayer(), decl.PerLayer)
	if len(decl.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads declared, %d implemented", len(decl.Workloads), len(workloadNames))
	}
	for i, w := range decl.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: declared %s, implemented %s", i, w.Name, workloadNames[i])
		}
	}
}
