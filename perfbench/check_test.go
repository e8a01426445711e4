package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"

	"fragalloc/internal/model"
	"fragalloc/internal/service"
)

// tiny is a two-node instance with a known balanced allocation: queries 0
// and 1 each carry half the load; node 0 stores fragments {0, 2} and runs
// query 0, node 1 stores {1, 2} and runs query 1. Query 2 reads only the
// shared fragment 2 and has no load.
func tiny() (*model.Workload, *model.ScenarioSet, *model.Allocation) {
	w := &model.Workload{
		Fragments: []model.Fragment{{ID: 0, Size: 10}, {ID: 1, Size: 20}, {ID: 2, Size: 5}},
		Queries: []model.Query{
			{ID: 0, Fragments: []int{0, 2}, Cost: 2, Frequency: 1},
			{ID: 1, Fragments: []int{1}, Cost: 2, Frequency: 1},
			{ID: 2, Fragments: []int{2}, Cost: 1, Frequency: 0},
		},
	}
	ss := &model.ScenarioSet{Frequencies: [][]float64{{1, 1, 0}}}
	a := &model.Allocation{
		K:         2,
		Fragments: [][]int{{0, 2}, {1, 2}},
		Shares:    [][][]float64{{{1, 0}, {0, 1}, {0, 0}}},
	}
	return w, ss, a
}

const tinyW, tinyWV = 40, 40.0 / 35

func TestCheckResultAcceptsBalancedAllocation(t *testing.T) {
	w, ss, a := tiny()
	if err := checkResult(w, ss, a, tinyW, tinyWV); err != nil {
		t.Fatal(err)
	}
}

func TestCheckResultCatchesCorruption(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(a *model.Allocation)
		w, wv   float64
		want    string
	}{
		{"share on a node without the fragments", func(a *model.Allocation) {
			a.Shares[0][0] = []float64{0, 1}
		}, tinyW, tinyWV, "lacks fragment"},
		{"dropped fragment", func(a *model.Allocation) {
			a.Fragments[0] = []int{0}
		}, 35, 1, "lacks fragment"},
		{"misreported W", func(a *model.Allocation) {}, tinyW + 1, tinyWV, "reports"},
		{"misreported W/V", func(a *model.Allocation) {}, tinyW, tinyWV * 1.01, "W/V"},
		{"query not fully routed", func(a *model.Allocation) {
			a.Shares[0][1] = []float64{0, 0.5}
		}, tinyW, tinyWV, "want 1"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			w, ss, a := tiny()
			c.corrupt(a)
			err := checkResult(w, ss, a, c.w, c.wv)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("checkResult = %v, want an error containing %q", err, c.want)
			}
		})
	}
}

func TestCheckResultCatchesLoadImbalance(t *testing.T) {
	w, ss, a := tiny()
	// Both nodes can run both queries, but node 0 gets all the load.
	a.Fragments = [][]int{{0, 1, 2}, {0, 1, 2}}
	a.Shares[0][1] = []float64{1, 0}
	wBytes := 70.0
	err := checkResult(w, ss, a, wBytes, wBytes/35)
	if err == nil || !strings.Contains(err.Error(), "load share") {
		t.Fatalf("checkResult = %v, want a load-share error", err)
	}
}

func TestSelfTestCorruptsAndCatches(t *testing.T) {
	w, ss, a := tiny()
	bad := corrupt(w, a)
	if bad == nil {
		t.Fatal("corrupt found no share to misroute")
	}
	if checkResult(w, ss, bad, tinyW, tinyWV) == nil {
		t.Fatal("the checker accepted the corrupted allocation")
	}
	if err := selfTest(w, ss, a, tinyW, tinyWV); err != nil {
		t.Fatal(err)
	}
	if a.Shares[0][0][0] != 1 {
		t.Fatal("corrupt modified its input")
	}
}

func TestCheckAdoptionReplaysDiff(t *testing.T) {
	w, _, old := tiny()
	next := &model.Allocation{K: 2, Fragments: [][]int{{1, 2}, {0, 2}}, Shares: [][][]float64{{{0, 1}, {1, 0}, {0, 0}}}}
	diff, err := service.ComputeDiff(w, old, next, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	inc := &service.Incumbent{Allocation: next, Epoch: 2, W: tinyW}
	if err := checkAdoption(w, old, inc, diff, 2); err != nil {
		t.Fatal(err)
	}
	wrong := &model.Allocation{K: 2, Fragments: [][]int{{0, 1, 2}, {0, 2}}, Shares: next.Shares}
	if err := checkAdoption(w, old, &service.Incumbent{Allocation: wrong, Epoch: 2, W: 50}, diff, 2); err == nil {
		t.Fatal("checkAdoption accepted an incumbent the diff does not produce")
	}
	if err := checkAdoption(w, old, inc, diff, 3); err == nil {
		t.Fatal("checkAdoption accepted a diff for another epoch")
	}
}

func TestTailHasTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	v, pct, n := tail(xs)
	if v != 90 || pct != 90 || n != 100 {
		t.Fatalf("tail = %v at p%v of %d, want 90 at p90 of 100", v, pct, n)
	}
	if v, pct, _ := tail(xs[:5]); v != 5 || pct != 100 {
		t.Fatalf("tail of 5 samples = %v at p%v, want the maximum at p100", v, pct)
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	tr := &tracer{spans: []span{
		{ID: 1, Name: "allocate", Start: 0, End: 10},
		{ID: 2, Parent: 1, Name: "split.group", Start: 1, End: 5},
		{ID: 3, Parent: 1, Name: "split.group", Start: 3, End: 7},
	}}
	self := tr.selfTimes()
	if self["allocate"] != 4 || self["split.group"] != 8 {
		t.Fatalf("self times = %v, want allocate 4 and split.group 8", self)
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json and the metric
// tables the program reports in step.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found next to perfbench/")
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, m := range endToEnd {
		want[m.name] = m.unit
	}
	for _, m := range bench.EndToEnd {
		if want[m.Name] != m.Unit {
			t.Errorf("end-to-end %s: BENCHMARK.json unit %q, program %q", m.Name, m.Unit, want[m.Name])
		}
		delete(want, m.Name)
	}
	for name := range want {
		t.Errorf("end-to-end %s is reported but not declared", name)
	}
	r := newRun(config{})
	layerDefaults(r)
	for _, m := range bench.PerLayer {
		got, ok := r.layer[m.Name]
		if !ok || got.Unit != m.Unit {
			t.Errorf("per-layer %s: BENCHMARK.json unit %q, program %q", m.Name, m.Unit, got.Unit)
		}
		delete(r.layer, m.Name)
	}
	for name := range r.layer {
		t.Errorf("per-layer %s is reported but not declared", name)
	}
	for _, wl := range bench.Workloads {
		if workloads[wl.Name] == nil {
			t.Errorf("workload %s is declared but not implemented", wl.Name)
		}
	}
}
