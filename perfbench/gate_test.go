package main

import "testing"

// The ledger accepts repeats of the counters it recorded and reports a
// changed counter as a determinism failure, without recording that run.
func TestRecordFlagsChangedCounter(t *testing.T) {
	cfg := config{Workload: "w", OutDir: t.TempDir()}
	first := map[string]float64{"simplex.lp_iters": 100, "wv": 2.5}
	for i := 1; i <= 2; i++ {
		runs, err := record(cfg, "k", first)
		if err != nil || runs != i {
			t.Fatalf("run %d: runs %d, err %v; want %d, nil", i, runs, err, i)
		}
	}
	if _, err := record(cfg, "k", map[string]float64{"simplex.lp_iters": 101, "wv": 2.5}); err == nil {
		t.Fatal("a changed pivot count passed the gate")
	}
	if _, err := record(cfg, "k", map[string]float64{"wv": 2.5}); err == nil {
		t.Fatal("a missing counter passed the gate")
	}
	if runs, err := record(cfg, "other", map[string]float64{"wv": 3}); err != nil || runs != 1 {
		t.Fatalf("another key: runs %d, err %v; want 1, nil", runs, err)
	}
	if runs, err := record(cfg, "k", first); err != nil || runs != 3 {
		t.Fatalf("after the failures: runs %d, err %v; want 3, nil", runs, err)
	}
}
