package main

import (
	"fmt"
	"math"

	"fragalloc/internal/model"
	"fragalloc/internal/service"
)

// The output checker verifies the paper's invariants, model (3)-(7), from
// the data alone. It shares no code with the solver: it reads the workload,
// the scenarios and the allocation and does its own arithmetic.

// Tolerances: routing shares come out of an LP solved to ~1e-9, so a node's
// load may miss 1/K by round-off but never by a visible amount.
const (
	shareTol = 1e-6
	relTol   = 1e-9
)

// checkPlacement checks the structure of the placement and that every
// routed share sits on a node that stores all fragments of its query. It
// returns the per-node fragment sets.
func checkPlacement(w *model.Workload, a *model.Allocation) ([][]bool, error) {
	if a == nil || a.K < 1 || len(a.Fragments) != a.K {
		return nil, fmt.Errorf("allocation has no valid node list")
	}
	holds := make([][]bool, a.K)
	for k, frags := range a.Fragments {
		holds[k] = make([]bool, len(w.Fragments))
		for n, i := range frags {
			if i < 0 || i >= len(w.Fragments) {
				return nil, fmt.Errorf("node %d stores unknown fragment %d", k, i)
			}
			if n > 0 && frags[n-1] >= i {
				return nil, fmt.Errorf("node %d fragment list is not sorted and unique", k)
			}
			holds[k][i] = true
		}
	}
	for s, rows := range a.Shares {
		if len(rows) != len(w.Queries) {
			return nil, fmt.Errorf("scenario %d routes %d queries, want %d", s, len(rows), len(w.Queries))
		}
		for j, row := range rows {
			if len(row) != a.K {
				return nil, fmt.Errorf("scenario %d query %d has %d node shares, want %d", s, j, len(row), a.K)
			}
			for k, x := range row {
				if x < -shareTol || x > 1+shareTol || math.IsNaN(x) {
					return nil, fmt.Errorf("scenario %d query %d node %d has share %v outside [0,1]", s, j, k, x)
				}
				if x <= shareTol {
					continue
				}
				for _, i := range w.Queries[j].Fragments {
					if !holds[k][i] {
						return nil, fmt.Errorf("scenario %d routes %.4g of query %d to node %d, which lacks fragment %d", s, x, j, k, i)
					}
				}
			}
		}
	}
	return holds, nil
}

// storedBytes is W recomputed from the placement.
func storedBytes(w *model.Workload, a *model.Allocation) float64 {
	var total float64
	for _, frags := range a.Fragments {
		for _, i := range frags {
			total += w.Fragments[i].Size
		}
	}
	return total
}

// accessedBytes is V: the size of every fragment that a query with positive
// frequency in some scenario accesses.
func accessedBytes(w *model.Workload, ss *model.ScenarioSet) float64 {
	used := make([]bool, len(w.Fragments))
	for _, freq := range ss.Frequencies {
		for j, q := range w.Queries {
			if freq[j] > 0 {
				for _, i := range q.Fragments {
					used[i] = true
				}
			}
		}
	}
	var v float64
	for i, u := range used {
		if u {
			v += w.Fragments[i].Size
		}
	}
	return v
}

func near(a, b, rel float64) bool {
	return math.Abs(a-b) <= rel*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// checkResult verifies an allocation against the in-sample scenarios it
// was solved for: routing only to capable nodes, every query with load
// fully routed, every node carrying exactly 1/K of every scenario, and the
// reported W and W/V equal to what the placement stores.
func checkResult(w *model.Workload, ss *model.ScenarioSet, a *model.Allocation, reportedW, reportedWV float64) error {
	if _, err := checkPlacement(w, a); err != nil {
		return err
	}
	if len(a.Shares) != ss.S() {
		return fmt.Errorf("allocation routes %d scenarios, want %d", len(a.Shares), ss.S())
	}
	for s, freq := range ss.Frequencies {
		var total float64
		loads := make([]float64, a.K)
		for j, q := range w.Queries {
			load := freq[j] * q.Cost
			if load <= 0 {
				continue
			}
			total += load
			var routed float64
			for k, x := range a.Shares[s][j] {
				routed += x
				loads[k] += load * x
			}
			if math.Abs(routed-1) > shareTol {
				return fmt.Errorf("scenario %d routes %.9f of query %d, want 1", s, routed, j)
			}
		}
		for k, l := range loads {
			if math.Abs(l/total-1/float64(a.K)) > shareTol {
				return fmt.Errorf("scenario %d puts load share %.9f on node %d, want 1/K = %.9f", s, l/total, k, 1/float64(a.K))
			}
		}
	}
	wBytes, vBytes := storedBytes(w, a), accessedBytes(w, ss)
	if !near(wBytes, reportedW, relTol) {
		return fmt.Errorf("placement stores W = %.6g bytes, result reports %.6g", wBytes, reportedW)
	}
	if !near(wBytes/vBytes, reportedWV, relTol) {
		return fmt.Errorf("placement gives W/V = %.9f, result reports %.9f", wBytes/vBytes, reportedWV)
	}
	return nil
}

// checkInSampleL verifies that the max-flow evaluator's worst-case load
// share L̃ is 1/K on every in-sample scenario.
func checkInSampleL(k int, ls []float64) error {
	for s, l := range ls {
		if math.Abs(l-1/float64(k)) > shareTol {
			return fmt.Errorf("in-sample scenario %d evaluates to L̃ = %.9f, want 1/K = %.9f", s, l, 1/float64(k))
		}
	}
	return nil
}

// checkAdoption verifies one allocd adoption: the served placement routes
// only to capable nodes with every query row fully routed or unrouted, its
// reported W matches the placement, and replaying the published diff on the
// previous incumbent reproduces the new placement exactly. (The solved
// scenario set is the daemon's internal reduction, so the 1/K balance is
// checked on the bootstrap allocation only.)
func checkAdoption(w *model.Workload, prev *model.Allocation, inc *service.Incumbent, diff *service.Diff, epoch uint64) error {
	a := inc.Allocation
	if _, err := checkPlacement(w, a); err != nil {
		return err
	}
	for s, rows := range a.Shares {
		for j, row := range rows {
			var routed float64
			for _, x := range row {
				routed += x
			}
			if math.Abs(routed) > shareTol && math.Abs(routed-1) > shareTol {
				return fmt.Errorf("scenario %d routes %.9f of query %d, want 0 or 1", s, routed, j)
			}
		}
	}
	wBytes := storedBytes(w, a)
	if !near(wBytes, inc.W, relTol) {
		return fmt.Errorf("served placement stores W = %.6g bytes, incumbent reports %.6g", wBytes, inc.W)
	}
	if diff == nil || diff.ToEpoch != epoch {
		return fmt.Errorf("no migration plan published for epoch %d", epoch)
	}
	replayed := service.ApplyDiff(prev, diff)
	if replayed.K != a.K {
		return fmt.Errorf("diff replay yields %d nodes, incumbent has %d", replayed.K, a.K)
	}
	for k := range a.Fragments {
		if !sameInts(replayed.Fragments[k], a.Fragments[k]) {
			return fmt.Errorf("diff replay of epoch %d differs from the incumbent on node %d", epoch, k)
		}
	}
	return nil
}

func sameInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// corrupt returns a copy of a with one routed share moved onto a node that
// lacks one of the query's fragments, or nil if every node can run every
// routed query. The benchmark feeds it to the checker on every run: a
// checker that accepts it is broken, and the run fails.
func corrupt(w *model.Workload, a *model.Allocation) *model.Allocation {
	holds, err := checkPlacement(w, a)
	if err != nil {
		return nil
	}
	canRun := func(j, k int) bool {
		for _, i := range w.Queries[j].Fragments {
			if !holds[k][i] {
				return false
			}
		}
		return true
	}
	for s, rows := range a.Shares {
		for j, row := range rows {
			for from, x := range row {
				if x <= shareTol {
					continue
				}
				for to := range row {
					if !canRun(j, to) {
						c := a.Clone()
						c.Shares[s][j][from], c.Shares[s][j][to] = 0, x
						return c
					}
				}
			}
		}
	}
	return nil
}
