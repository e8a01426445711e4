package simplex

import (
	"math"
	"testing"
)

// TestSetBoundStatusTransitions exercises every nonbasic status transition
// SetBound performs when a bound the variable was resting on disappears
// (becomes infinite), including the degenerate both-infinite case and the
// free-variable re-anchoring when a finite bound appears.
func TestSetBoundStatusTransitions(t *testing.T) {
	s, err := NewSolver(recoveryLP(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	j := 0
	inf := math.Inf(1)
	cases := []struct {
		name   string
		start  int8
		lb, ub float64
		want   int8
	}{
		{"lower-stays", nbLower, 0, 2, nbLower},
		{"lower-to-upper", nbLower, -inf, 3, nbUpper},
		{"lower-to-free", nbLower, -inf, inf, nbFree},
		{"upper-stays", nbUpper, 0, 2, nbUpper},
		{"upper-to-lower", nbUpper, -2, inf, nbLower},
		{"upper-to-free", nbUpper, -inf, inf, nbFree},
		{"free-to-lower", nbFree, 0, 1, nbLower},
		{"free-to-upper", nbFree, -inf, 0, nbUpper},
		{"free-stays", nbFree, -inf, inf, nbFree},
		{"basic-untouched", isBasic, -inf, inf, isBasic},
	}
	for _, c := range cases {
		s.vstat[j] = c.start
		s.SetBound(j, c.lb, c.ub)
		if s.vstat[j] != c.want {
			t.Errorf("%s: status = %d, want %d", c.name, s.vstat[j], c.want)
		}
		//fragvet:ignore floatcmp — bounds are stored verbatim from the case table; exact equality is the assertion
		if lb, ub := s.Bounds(j); lb != c.lb || ub != c.ub {
			t.Errorf("%s: bounds = [%v,%v], want [%v,%v]", c.name, lb, ub, c.lb, c.ub)
		}
	}
}

// unboundedFlipLP is min −x with x ∈ [0,1] and a roomy row x ≤ 5, plus two
// cost-free columns y1, y2 ≥ 0 held up by rows y_i ≥ 1. The optimum parks x
// nonbasic at its upper bound with reduced cost −1, which is exactly the
// setup where relaxing the bound structure makes the dual warm start
// invalid. The y rows cost a cold solve a phase 1 that the warm basis has
// already paid for, so a warm re-solve that keeps its basis needs fewer
// pivots than a cold one.
func unboundedFlipLP() (*Problem, int) {
	p := &Problem{}
	x := p.AddVar(0, 1, -1)
	p.AddRow([]int{x}, []float64{1}, LE, 5)
	for i := 0; i < 2; i++ {
		y := p.AddVar(0, math.Inf(1), 0)
		p.AddRow([]int{y}, []float64{1}, GE, 1)
	}
	return p, x
}

// checkWarmReSolve runs ReSolveDual after a bound change that no flip can
// repair and checks the warm cost-shifting path: one shifted cost, the
// optimum −5 at x = 5, no Recovery record (no cold restart), and fewer
// pivots than a cold solve of the same bounds.
func checkWarmReSolve(t *testing.T, s *Solver, x int, lb, ub float64) {
	t.Helper()
	s.SetBound(x, lb, ub)
	s.pcost = append(s.pcost[:0], s.cost...)
	if n := s.repairDualFeasibility(); n != 1 {
		t.Errorf("repairDualFeasibility shifted %d costs, want 1", n)
	}
	res := s.ReSolveDual()
	if res.Status != StatusOptimal || !approx(res.Obj, -5, 1e-6) || !approx(res.X[x], 5, 1e-6) {
		t.Fatalf("ReSolveDual: status=%v obj=%v x=%v, want optimal -5 at x=5", res.Status, res.Obj, res.X)
	}
	if res.Recovery != nil {
		t.Errorf("Recovery = %+v, want nil: the re-solve must stay warm", res.Recovery)
	}
	p, _ := unboundedFlipLP()
	p.LB[x], p.UB[x] = lb, ub
	cold, err := Solve(p, s.opt)
	if err != nil || cold.Status != StatusOptimal || !approx(cold.Obj, -5, 1e-6) {
		t.Fatalf("cold solve: %v %+v", err, cold)
	}
	if res.Iters >= cold.Iters {
		t.Errorf("warm re-solve took %d pivots, cold solve %d: want fewer", res.Iters, cold.Iters)
	}
}

// TestRepairDualFeasibilityUnrepairableFlip drives repairDualFeasibility
// into the path where a violated reduced-cost sign cannot be fixed by a
// bound flip because the opposite bound is infinite: the column's cost is
// shifted instead, and ReSolveDual reaches the optimum from the warm basis.
func TestRepairDualFeasibilityUnrepairableFlip(t *testing.T) {
	p, x := unboundedFlipLP()
	s, err := NewSolver(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res := s.Solve(); res.Status != StatusOptimal || !approx(res.Obj, -1, 1e-9) {
		t.Fatalf("initial solve: status=%v obj=%v", res.Status, res.Obj)
	}
	if s.vstat[x] != nbUpper {
		t.Fatalf("setup assumption broken: x status = %d, want nonbasic at upper", s.vstat[x])
	}
	// Removing the upper bound moves x to nbLower (SetBound keeps it on the
	// surviving bound), where its reduced cost −1 violates dual feasibility
	// and the opposite bound is now infinite: unrepairable by a flip.
	checkWarmReSolve(t, s, x, 0, math.Inf(1))
}

// TestRepairDualFeasibilityFreeVariable covers the nbFree arm: a free
// variable with a nonzero reduced cost has no bound to flip to at all.
func TestRepairDualFeasibilityFreeVariable(t *testing.T) {
	p, x := unboundedFlipLP()
	s, err := NewSolver(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res := s.Solve(); res.Status != StatusOptimal {
		t.Fatalf("initial solve: %v", res.Status)
	}
	if s.vstat[x] != nbUpper {
		t.Fatalf("setup assumption broken: x status = %d", s.vstat[x])
	}
	s.SetBound(x, math.Inf(-1), math.Inf(1))
	if s.vstat[x] != nbFree {
		t.Fatalf("x status = %d after dropping both bounds, want free", s.vstat[x])
	}
	checkWarmReSolve(t, s, x, math.Inf(-1), math.Inf(1))
}

// TestInfeasibleColdThenRelaxedReSolve is the regression net for artificial
// handling after an infeasible phase 1: min x+y over x+y ≥ 3 with
// x, y ∈ [0,1] is infeasible and leaves an artificial basic at a positive
// value. After relaxing x's upper bound, the warm re-solve must satisfy
// every row within FeasTol with no artificial positive — an artificial
// left with bounds [0,∞) would silently relax the row instead — and a
// later cold solve must drop the stale artificial columns, not pile them up.
func TestInfeasibleColdThenRelaxedReSolve(t *testing.T) {
	p := &Problem{}
	x := p.AddVar(0, 1, 1)
	y := p.AddVar(0, 1, 1)
	p.AddRow([]int{x, y}, []float64{1, 1}, GE, 3)
	p.AddRow([]int{x, y}, []float64{1, -1}, LE, 4)
	s, err := NewSolver(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res := s.Solve(); res.Status != StatusInfeasible {
		t.Fatalf("initial solve: %v, want infeasible", res.Status)
	}
	ncols := s.ncols
	if ncols == s.n+s.m {
		t.Fatal("setup assumption broken: the infeasible phase 1 added no artificial")
	}
	s.SetBound(x, 0, 10)
	res := s.ReSolveDual()
	if res.Status != StatusOptimal || !approx(res.Obj, 3, 1e-6) {
		t.Fatalf("ReSolveDual: status=%v obj=%v, want optimal 3", res.Status, res.Obj)
	}
	for r, row := range p.Rows {
		var act float64
		for k, j := range row.Idx {
			act += row.Coef[k] * res.X[j]
		}
		if (p.Rel[r] == GE && act < p.RHS[r]-s.opt.FeasTol) || (p.Rel[r] == LE && act > p.RHS[r]+s.opt.FeasTol) {
			t.Errorf("row %d: activity %v violates %v %v", r, act, p.Rel[r], p.RHS[r])
		}
	}
	for j := s.n + s.m; j < s.ncols; j++ {
		if v := s.value(j); v > s.opt.FeasTol {
			t.Errorf("artificial column %d is %v, want 0", j, v)
		}
	}
	for i := 0; i < 2; i++ {
		s.Solve()
		if s.ncols > ncols {
			t.Fatalf("cold solve %d: %d columns, want at most %d (stale artificials kept)", i, s.ncols, ncols)
		}
	}
}

// shrinkFtranKernel wraps the real basis kernel and scales the output of
// one chosen ftran call by 1e-30, simulating the eta-file drift where the
// row-wise alpha (computed via BTRAN of a unit row) says a pivot element is
// healthy but the FTRAN column disagrees.
type shrinkFtranKernel struct {
	basisKernel
	calls     int
	corruptAt int // 1-based index of the ftran call to corrupt; 0 disarms
}

func (k *shrinkFtranKernel) ftran(v []float64) {
	k.basisKernel.ftran(v)
	k.calls++
	if k.calls == k.corruptAt {
		for i := range v {
			v[i] *= 1e-30
		}
	}
}

// TestDualPivotGuardReturnsUnknown checks the runDual tiny-pivot guard
// white-box: when the FTRAN column's pivot element collapses below
// PivotTol even though the rho-based eligibility test passed, the pass
// must abort with StatusUnknown instead of dividing by the near-zero
// element and blasting xB.
func TestDualPivotGuardReturnsUnknown(t *testing.T) {
	s, err := NewSolver(recoveryLP(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res := s.Solve(); res.Status != StatusOptimal {
		t.Fatalf("initial solve: %v", res.Status)
	}
	s.SetBound(0, 0, 0.5) // x was basic at 1.6: a dual pivot is required
	s.pcost = append(s.pcost[:0], s.cost...)
	if n := s.repairDualFeasibility(); n != 0 {
		t.Fatalf("repairDualFeasibility shifted %d costs on an instance that needs none", n)
	}
	shim := &shrinkFtranKernel{basisKernel: s.kern, corruptAt: 1}
	s.kern = shim
	if st := s.runDual(); st != StatusUnknown {
		t.Fatalf("runDual = %v with a collapsed pivot column, want unknown", st)
	}
	if shim.calls == 0 {
		t.Fatal("shim never invoked; the guard was not exercised")
	}
}

// TestDualPivotGuardRecovery is the end-to-end version: ReSolveDual hits
// the tiny-pivot guard mid-pass and must still deliver the true optimum
// through its cold-restart fallback, recorded as the cold rung. Call 1 is repairDualFeasibility's
// computeXB; call 2 is the dual pivot's entering column.
func TestDualPivotGuardRecovery(t *testing.T) {
	s, err := NewSolver(recoveryLP(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res := s.Solve(); res.Status != StatusOptimal {
		t.Fatalf("initial solve: %v", res.Status)
	}
	s.SetBound(0, 0, 0.5)
	shim := &shrinkFtranKernel{basisKernel: s.kern, corruptAt: 2}
	s.kern = shim
	res := s.ReSolveDual()
	if res.Status != StatusOptimal {
		t.Fatalf("ReSolveDual status = %v, want optimal despite corrupted pivot", res.Status)
	}
	// max x+y, x+2y≤4, 3x+y≤6, x≤0.5 → (0.5, 1.75), minimized obj −2.25.
	if !approx(res.Obj, -2.25, 1e-6) {
		t.Errorf("obj = %v, want -2.25", res.Obj)
	}
	if !res.Recovery.Cold() {
		t.Errorf("Recovery = %+v, want the cold rung recorded", res.Recovery)
	}
	if shim.calls < shim.corruptAt {
		t.Fatalf("only %d ftran calls; the corruption never fired", shim.calls)
	}
}

// adversarialLP mixes coefficient magnitudes across twelve orders so that
// absolute pivot magnitudes are meaningless: a healthy pivot in one row is
// smaller than roundoff noise in another. The dual re-solve churn below is
// the regression net for the tiny-pivot guard under realistic drift.
func adversarialLP() *Problem {
	p := &Problem{}
	x0 := p.AddVar(0, 1e6, -1e-6)
	x1 := p.AddVar(0, 1, -1)
	x2 := p.AddVar(0, 1e-3, -1e3)
	x3 := p.AddVar(0, 10, -0.5)
	p.AddRow([]int{x0, x1, x2, x3}, []float64{1e-6, 1, 1e3, 0.1}, LE, 2)
	p.AddRow([]int{x0, x1}, []float64{1e-5, 2}, LE, 3)
	p.AddRow([]int{x2, x3}, []float64{1e4, 1}, GE, 0.5)
	return p
}

// TestDualReSolveAdversarialScaling warm re-solves the badly scaled LP
// through a churn of bound fixes and relaxations, checking every warm
// objective against a cold solve of an identically bounded fresh problem.
func TestDualReSolveAdversarialScaling(t *testing.T) {
	for _, pricing := range []Pricing{PricingDevex, PricingDantzig} {
		s, err := NewSolver(adversarialLP(), Options{Pricing: pricing})
		if err != nil {
			t.Fatal(err)
		}
		if res := s.Solve(); res.Status != StatusOptimal {
			t.Fatalf("%v: initial solve %v", pricing, res.Status)
		}
		steps := []struct {
			j      int
			lb, ub float64
		}{
			{1, 0, 0},   // fix x1 = 0
			{3, 10, 10}, // fix x3 = 10
			{1, 0, 1},   // relax x1
			{3, 0, 10},  // relax x3
			{0, 0, 0},   // fix the huge-range x0
			{2, 1e-3, 1e-3},
			{0, 0, 1e6},
			{2, 0, 1e-3},
		}
		for i, st := range steps {
			s.SetBound(st.j, st.lb, st.ub)
			warm := s.ReSolveDual()
			cold := adversarialLP()
			for _, prev := range steps[:i+1] {
				cold.LB[prev.j], cold.UB[prev.j] = prev.lb, prev.ub
			}
			// Later steps overwrite earlier ones for the same variable, which
			// the loop above already applies in order.
			cs, err := NewSolver(cold, Options{Pricing: pricing})
			if err != nil {
				t.Fatal(err)
			}
			want := cs.Solve()
			if warm.Status != want.Status {
				t.Fatalf("%v step %d: warm status %v, cold %v", pricing, i, warm.Status, want.Status)
			}
			if warm.Status == StatusOptimal && !approx(warm.Obj, want.Obj, 1e-6*(1+math.Abs(want.Obj))) {
				t.Errorf("%v step %d: warm obj %v, cold %v", pricing, i, warm.Obj, want.Obj)
			}
		}
	}
}

// TestDualEnterHarrisAvoidsTinyPivot checks the dual ratio test white-box:
// the minimal ratio (0) sits on a pivot element of 5e-8, a near-tie (ratio
// 1e-10, inside the Harris slack) on an element of 1. The Harris pass must
// take the large element; Bland's rule must keep the exact minimal ratio.
func TestDualEnterHarrisAvoidsTinyPivot(t *testing.T) {
	p := &Problem{}
	tiny := p.AddVar(0, 1, 0)
	big := p.AddVar(0, 1, 1e-10)
	p.AddRow([]int{tiny, big}, []float64{5e-8, 1}, LE, 1)
	s, err := NewSolver(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s.initBasis() // slack basic: rho = e_0 and y = 0, so d_j is the cost
	s.pcost = append([]float64(nil), s.cost...)
	rho, y := []float64{1}, []float64{0}
	if enter, _ := s.dualEnter(rho, y, 1); enter != big {
		t.Errorf("entering column %d, want %d (the large pivot element)", enter, big)
	}
	s.bland = true
	if enter, _ := s.dualEnter(rho, y, 1); enter != tiny {
		t.Errorf("Bland: entering column %d, want %d (the exact minimal ratio)", enter, tiny)
	}
}
