package simplex

import "math"

// SetBound changes the bounds of structural variable j. The typical caller
// is the branch-and-bound solver fixing a binary variable to 0 or 1, or
// restoring its original [0,1] range while backtracking. Call ReSolveDual
// afterwards to restore optimality from the current basis.
func (s *Solver) SetBound(j int, lb, ub float64) {
	s.lb[j], s.ub[j] = lb, ub
	if s.vstat[j] == isBasic {
		return
	}
	// Keep the variable on a still-existing bound; prefer its current side.
	switch s.vstat[j] {
	case nbLower:
		if math.IsInf(lb, -1) {
			if math.IsInf(ub, 1) {
				s.vstat[j] = nbFree
			} else {
				s.vstat[j] = nbUpper
			}
		}
	case nbUpper:
		if math.IsInf(ub, 1) {
			if math.IsInf(lb, -1) {
				s.vstat[j] = nbFree
			} else {
				s.vstat[j] = nbLower
			}
		}
	case nbFree:
		if !math.IsInf(lb, -1) {
			s.vstat[j] = nbLower
		} else if !math.IsInf(ub, 1) {
			s.vstat[j] = nbUpper
		}
	}
}

// Bounds returns the current bounds of structural variable j.
func (s *Solver) Bounds(j int) (lb, ub float64) { return s.lb[j], s.ub[j] }

// ReSolveDual restores optimality after bound changes using the dual
// simplex, starting from the current basis. The basis stays dual feasible
// across bound changes because reduced costs depend only on the basis and
// the (unchanged) costs; at most the changed variables themselves need a
// status flip, which repairDualFeasibility performs for variables with two
// finite bounds.
//
// A wrong-signed reduced cost that no flip can repair (the opposite bound
// is infinite) is removed by cost shifting instead: the column's active
// cost is moved so that its reduced cost becomes zero, the dual pass runs
// to primal feasibility on the shifted costs, and the true costs are
// restored before the verifying primal pass, which removes the leftover
// dual infeasibility. The current basis and its factorization are kept
// throughout; only numerical failure abandons them for a cold Solve, which
// the result records as the RungCold rung of its Recovery.
//
// If the solver has never completed a primal solve, it falls back to Solve.
func (s *Solver) ReSolveDual() *Result {
	if s.pcost == nil {
		return s.Solve()
	}
	s.iters = 0
	s.bland = false
	s.stall = 0
	// Restore the true objective: if the previous solve ended during phase
	// 1 (an infeasible node), pcost still holds the phase-1 artificial
	// costs, and pricing with those would terminate at arbitrary points.
	s.pcost = append(s.pcost[:0], s.cost...)
	// The basis factorization stays valid across bound changes (the basis
	// itself is untouched), so refactorize only on accumulated update
	// drift. xB is not recomputed here: repairDualFeasibility does it after
	// settling the nonbasic statuses.
	if s.updates >= s.opt.RefactorEvery/2 {
		if err := s.refactor(); err != nil {
			return s.coldRestart() // basis unusable
		}
	}
	shifted := s.repairDualFeasibility()
	res := s.runDual()
	if res == StatusInfeasible && s.updates > 0 {
		// An infeasibility claim rests on the alphas of a single basis row;
		// after many product-form updates those can drift. Re-check on a
		// fresh factorization before trusting it. (Primal infeasibility
		// does not depend on the costs, so a shift cannot fake it.)
		if err := s.refactor(); err == nil {
			s.computeXB()
			res = s.runDual()
		}
	}
	switch res {
	case StatusOptimal:
		if shifted > 0 {
			s.pcost = append(s.pcost[:0], s.cost...)
		}
		// The primal simplex from here is exact verification: the basis is
		// primal feasible, so it terminates immediately when the point is
		// truly optimal for the true costs and repairs it otherwise — both
		// the dual infeasibility a cost shift left behind and any that
		// numerical drift across hundreds of degenerate dual pivots broke
		// silently.
		switch s.runPrimal(false) {
		case StatusOptimal:
			return &Result{Status: StatusOptimal, X: s.extract(), Obj: s.trueObjective(), Iters: s.iters}
		case StatusUnbounded:
			return &Result{Status: StatusUnbounded, Iters: s.iters}
		case StatusIterLimit:
			return &Result{Status: StatusIterLimit, Iters: s.iters}
		case StatusCanceled:
			return &Result{Status: StatusCanceled, Iters: s.iters}
		default:
			return s.coldRestart()
		}
	case StatusInfeasible:
		return &Result{Status: StatusInfeasible, Iters: s.iters}
	case StatusIterLimit:
		return &Result{Status: StatusIterLimit, Iters: s.iters}
	case StatusCanceled:
		return &Result{Status: StatusCanceled, Iters: s.iters}
	}
	// Numerical failure (singular refactorization or a stalled dual pass):
	// a cold two-phase primal solve from a fresh basis is always well
	// defined, so fall back to it rather than reporting unknown.
	return s.coldRestart()
}

// coldRestart abandons the warm basis for a cold two-phase Solve. The
// result counts the warm pivots already spent and records the fallback as
// the RungCold rung ahead of any rungs Solve itself climbed.
func (s *Solver) coldRestart() *Result {
	warm := s.iters
	res := s.Solve()
	res.Iters += warm
	rec := &Recovery{Restarts: 1, Rungs: []string{RungCold}}
	if res.Recovery != nil {
		rec.Restarts += res.Recovery.Restarts
		rec.Rungs = append(rec.Rungs, res.Recovery.Rungs...)
	}
	res.Recovery = rec
	return res
}

// repairDualFeasibility makes the current basis dual feasible for the
// active costs pcost and recomputes xB. A nonbasic column whose reduced
// cost has the wrong sign is flipped to its opposite bound when that bound
// is finite; otherwise (an infinite opposite bound, or a free column with a
// nonzero reduced cost) its active cost is shifted by −d_j, which zeroes
// the reduced cost and leaves every other reduced cost unchanged. It
// returns the number of shifted costs; the caller restores the true costs
// once the dual pass has reached primal feasibility.
func (s *Solver) repairDualFeasibility() int {
	y := s.btran()
	shifted := 0
	for j := 0; j < s.ncols; j++ {
		st := s.vstat[j]
		//fragvet:ignore floatcmp — fixed-variable check: SetBound(j, v, v) stores bit-identical bounds, so exact equality is the invariant
		if st == isBasic || s.lb[j] == s.ub[j] {
			continue
		}
		d := s.reducedCost(j, y)
		wrong := false
		switch st {
		case nbLower:
			if wrong = d < -s.opt.OptTol; wrong && !math.IsInf(s.ub[j], 1) {
				s.vstat[j], wrong = nbUpper, false
			}
		case nbUpper:
			if wrong = d > s.opt.OptTol; wrong && !math.IsInf(s.lb[j], -1) {
				s.vstat[j], wrong = nbLower, false
			}
		case nbFree:
			wrong = math.Abs(d) > s.opt.OptTol
		}
		if wrong {
			s.pcost[j] -= d
			shifted++
		}
	}
	s.computeXB()
	return shifted
}

// Harris ratio test parameters for the dual simplex (see dualEnter).
const (
	// harrisTrigger: a min-ratio pivot element smaller than this in
	// magnitude is re-selected by the Harris pass.
	harrisTrigger = 1e-7
	// harrisTol is the dual feasibility slack the Harris pass may spend to
	// reach a larger pivot element.
	harrisTol = 1e-9
)

// runDual is the bounded-variable dual simplex loop. It assumes a
// dual-feasible basis and pivots until primal feasibility (optimal), proven
// primal infeasibility (dual unboundedness), or the iteration limit.
func (s *Solver) runDual() Status {
	s.resetDevexWeights()
	for {
		if s.interrupted() {
			return StatusCanceled
		}
		if s.opt.Fault != nil && s.opt.Fault.ForceStall() {
			return StatusUnknown
		}
		if s.iters >= s.opt.MaxIters {
			return StatusIterLimit
		}
		if s.updates >= s.opt.RefactorEvery {
			if err := s.refactor(); err != nil {
				return StatusUnknown
			}
			s.computeXB()
		}

		// Leaving variable: the basic variable with the largest bound
		// violation (Dantzig), or the largest reference-weighted squared
		// violation (Devex), which approximates steepest-edge row selection.
		leave := -1
		var worst float64
		above := false
		if s.devex() {
			var bestScore float64
			for r := 0; r < s.m; r++ {
				bj := s.basic[r]
				v, ab := s.lb[bj]-s.xB[r], false
				if t := s.xB[r] - s.ub[bj]; t > v {
					v, ab = t, true
				}
				if v <= s.opt.FeasTol {
					continue
				}
				if score := v * v / s.ddw[r]; score > bestScore {
					bestScore, worst, leave, above = score, v, r, ab
				}
			}
		} else {
			for r := 0; r < s.m; r++ {
				bj := s.basic[r]
				if v := s.lb[bj] - s.xB[r]; v > worst {
					worst, leave, above = v, r, false
				}
				if v := s.xB[r] - s.ub[bj]; v > worst {
					worst, leave, above = v, r, true
				}
			}
		}
		if leave == -1 || worst <= s.opt.FeasTol {
			return StatusOptimal
		}

		// Entering variable: the dual ratio test on the leaving row.
		rho := s.binvRow(leave)
		y := s.btran()
		sigma := -1.0 // below lower bound
		if above {
			sigma = 1.0
		}
		enter, bestRatio := s.dualEnter(rho, y, sigma)
		if enter == -1 {
			// No column can relieve the violated row: primal infeasible.
			return StatusInfeasible
		}
		if bestRatio <= 1e-12 {
			s.stall++
			if s.stall > 300 {
				s.bland = true
			}
		} else {
			s.stall = 0
		}

		// Pivot: move the leaving variable exactly onto its violated bound.
		bj := s.basic[leave]
		var target float64
		if above {
			target = s.ub[bj]
		} else {
			target = s.lb[bj]
		}
		w := s.ftran(enter)
		if math.Abs(w[leave]) <= s.opt.PivotTol {
			// Entering eligibility was judged on the rho-based alpha, but the
			// pivot divides by the FTRAN column's w[leave]. The two are the
			// same quantity computed through different triangular solves, and
			// after enough eta updates they can disagree; dividing by a
			// near-zero w[leave] would blast xB with a huge delta. Abort the
			// pass instead — the caller's recovery ladder refactorizes and
			// restarts from a clean basis.
			return StatusUnknown
		}
		if s.devex() {
			s.updateDualDevex(leave, w)
		}
		delta := (s.xB[leave] - target) / w[leave]
		enterVal := s.nonbasicValue(enter) + delta
		for r := 0; r < s.m; r++ {
			if w[r] != 0 {
				s.xB[r] -= w[r] * delta
			}
		}
		if above {
			s.vstat[bj] = nbUpper
		} else {
			s.vstat[bj] = nbLower
		}
		s.pivot(leave, enter, w)
		s.xB[leave] = enterVal
		s.iters++
	}
}

// dualEnter is the bounded-variable dual ratio test for the leaving row
// whose B⁻¹ row is rho and whose violation direction is sigma (−1 below the
// lower bound, +1 above the upper). With alpha_j = rho·A_j, a pivot moves
// the dual multiplier by theta = d_e/alpha_e; dual feasibility of every
// other nonbasic column is preserved by choosing the minimal |d_j/alpha_j|
// among sign-eligible candidates, ties going to the larger |alpha_j| (or
// the smaller index under Bland's rule). It returns the entering column
// (−1 if none is eligible) and its ratio.
//
// A minimal ratio can sit on a pivot element that is little more than
// roundoff. Pivoting on it degrades the basis until the pass breaks down
// numerically, so when the chosen |alpha| is below harrisTrigger the
// choice is redone by Harris's two-pass test: the first pass bounds the
// step by the ratios relaxed by harrisTol, the second takes the largest
// |alpha| within that bound. Bland's rule keeps its exact choice.
func (s *Solver) dualEnter(rho, y []float64, sigma float64) (int, float64) {
	enter := -1
	bestRatio := math.Inf(1)
	var bestAlpha float64
	for j := 0; j < s.ncols; j++ {
		alpha, ok := s.dualAlpha(j, rho, sigma)
		if !ok {
			continue
		}
		ratio := math.Abs(s.reducedCost(j, y)) / math.Abs(alpha)
		better := ratio < bestRatio-1e-12
		if !better && ratio < bestRatio+1e-12 && enter >= 0 {
			if s.bland {
				better = j < enter
			} else {
				better = math.Abs(alpha) > math.Abs(bestAlpha)
			}
		}
		if better {
			enter, bestRatio, bestAlpha = j, ratio, alpha
		}
	}
	if enter == -1 || s.bland || math.Abs(bestAlpha) >= harrisTrigger {
		return enter, bestRatio
	}
	bound := math.Inf(1)
	for j := 0; j < s.ncols; j++ {
		if alpha, ok := s.dualAlpha(j, rho, sigma); ok {
			bound = math.Min(bound, (math.Abs(s.reducedCost(j, y))+harrisTol)/math.Abs(alpha))
		}
	}
	for j := 0; j < s.ncols; j++ {
		alpha, ok := s.dualAlpha(j, rho, sigma)
		if !ok || math.Abs(alpha) <= math.Abs(bestAlpha) {
			continue
		}
		if ratio := math.Abs(s.reducedCost(j, y)) / math.Abs(alpha); ratio <= bound {
			enter, bestRatio, bestAlpha = j, ratio, alpha
		}
	}
	return enter, bestRatio
}

// dualAlpha returns alpha_j = rho·A_j for nonbasic column j and whether j
// may enter a dual pivot on a row violated in direction sigma: |alpha_j|
// must exceed PivotTol, and moving j off its bound must move the leaving
// variable toward its violated bound.
func (s *Solver) dualAlpha(j int, rho []float64, sigma float64) (float64, bool) {
	st := s.vstat[j]
	//fragvet:ignore floatcmp — fixed-variable check: SetBound(j, v, v) stores bit-identical bounds, so exact equality is the invariant
	if st == isBasic || s.lb[j] == s.ub[j] {
		return 0, false
	}
	var alpha float64
	for _, e := range s.cols[j] {
		alpha += rho[e.row] * e.val
	}
	if math.Abs(alpha) <= s.opt.PivotTol {
		return 0, false
	}
	switch st {
	case nbLower:
		return alpha, sigma*alpha > 0
	case nbUpper:
		return alpha, sigma*alpha < 0
	}
	return alpha, true // nbFree
}
