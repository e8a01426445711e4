package simplex

import (
	"math"
	"testing"
)

// stubFault is a deterministic test injector: it fails the first
// failRefactors refactorization calls and forces a stall on the first
// stallAttempts loop entries.
type stubFault struct {
	refactorCalls int
	failRefactors int
	stallCalls    int
	stallFirst    int
}

func (f *stubFault) FailRefactor() bool {
	f.refactorCalls++
	return f.refactorCalls <= f.failRefactors
}

func (f *stubFault) ForceStall() bool {
	f.stallCalls++
	return f.stallCalls <= f.stallFirst
}

// recoveryLP is a small LP with a known optimum that performs several
// pivots, so RefactorEvery=1 guarantees refactorization calls.
// max x+y s.t. x+2y<=4, 3x+y<=6 => opt (1.6,1.2), obj -2.8 (minimized).
func recoveryLP() *Problem {
	p := &Problem{}
	x := p.AddVar(0, math.Inf(1), -1)
	y := p.AddVar(0, math.Inf(1), -1)
	p.AddRow([]int{x, y}, []float64{1, 2}, LE, 4)
	p.AddRow([]int{x, y}, []float64{3, 1}, LE, 6)
	return p
}

func TestRecoveryBlandRung(t *testing.T) {
	fault := &stubFault{failRefactors: 1}
	s, err := NewSolver(recoveryLP(), Options{RefactorEvery: 1, Fault: fault})
	if err != nil {
		t.Fatal(err)
	}
	res := s.Solve()
	if res.Status != StatusOptimal {
		t.Fatalf("status = %v, want optimal after recovery", res.Status)
	}
	if !approx(res.Obj, -2.8, 1e-6) {
		t.Errorf("obj = %g, want -2.8", res.Obj)
	}
	if res.Recovery == nil {
		t.Fatal("Recovery = nil, want a recovery record")
	}
	if res.Recovery.Restarts != 1 || len(res.Recovery.Rungs) != 1 || res.Recovery.Rungs[0] != RungBland {
		t.Errorf("Recovery = %+v, want 1 restart on the bland rung", res.Recovery)
	}
	if fault.refactorCalls < 2 {
		t.Errorf("refactor calls = %d, want at least 2 (the injected failure plus the recovery attempt)", fault.refactorCalls)
	}
}

func TestRecoveryPerturbRung(t *testing.T) {
	// An attempt aborts at its first failing refactorization, so failing
	// the first two calls kills the initial attempt and the bland restart;
	// only the perturbed-tolerance rung gets a working factorization.
	fault := &stubFault{failRefactors: 2}
	s, err := NewSolver(recoveryLP(), Options{RefactorEvery: 1, Fault: fault})
	if err != nil {
		t.Fatal(err)
	}
	res := s.Solve()
	if res.Status != StatusOptimal {
		t.Fatalf("status = %v, want optimal after perturbed restart", res.Status)
	}
	if !approx(res.Obj, -2.8, 1e-4) {
		t.Errorf("obj = %g, want -2.8", res.Obj)
	}
	if res.Recovery == nil || res.Recovery.Restarts != 2 {
		t.Fatalf("Recovery = %+v, want 2 restarts", res.Recovery)
	}
	want := []string{RungBland, RungPerturb}
	for i, rung := range want {
		if res.Recovery.Rungs[i] != rung {
			t.Errorf("Rungs[%d] = %q, want %q", i, res.Recovery.Rungs[i], rung)
		}
	}
}

func TestRecoveryExhausted(t *testing.T) {
	fault := &stubFault{failRefactors: 1 << 30}
	s, err := NewSolver(recoveryLP(), Options{RefactorEvery: 1, Fault: fault})
	if err != nil {
		t.Fatal(err)
	}
	res := s.Solve()
	if res.Status != StatusUnknown {
		t.Fatalf("status = %v, want unknown when every rung fails", res.Status)
	}
	if res.Recovery == nil || res.Recovery.Restarts != 2 {
		t.Errorf("Recovery = %+v, want both rungs recorded", res.Recovery)
	}
}

func TestRecoveryStallRestart(t *testing.T) {
	// An injected stall (numerical failure without a refactor error) also
	// enters the ladder.
	fault := &stubFault{stallFirst: 1}
	s, err := NewSolver(recoveryLP(), Options{Fault: fault})
	if err != nil {
		t.Fatal(err)
	}
	res := s.Solve()
	if res.Status != StatusOptimal {
		t.Fatalf("status = %v, want optimal after stall recovery", res.Status)
	}
	if res.Recovery == nil || res.Recovery.Restarts != 1 {
		t.Errorf("Recovery = %+v, want 1 restart", res.Recovery)
	}
}

func TestNoFaultNoRecoveryRecord(t *testing.T) {
	s, err := NewSolver(recoveryLP(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	res := s.Solve()
	if res.Status != StatusOptimal {
		t.Fatalf("status = %v", res.Status)
	}
	if res.Recovery != nil {
		t.Errorf("Recovery = %+v on a clean solve, want nil", res.Recovery)
	}
}

func TestSolveCanceled(t *testing.T) {
	s, err := NewSolver(recoveryLP(), Options{Canceled: func() bool { return true }})
	if err != nil {
		t.Fatal(err)
	}
	res := s.Solve()
	if res.Status != StatusCanceled {
		t.Fatalf("status = %v, want canceled", res.Status)
	}
	if res.Recovery != nil {
		t.Errorf("cancellation must not enter the recovery ladder, got %+v", res.Recovery)
	}
}

func TestReSolveDualCanceled(t *testing.T) {
	canceled := false
	s, err := NewSolver(recoveryLP(), Options{Canceled: func() bool { return canceled }})
	if err != nil {
		t.Fatal(err)
	}
	if res := s.Solve(); res.Status != StatusOptimal {
		t.Fatalf("initial solve: %v", res.Status)
	}
	canceled = true
	s.SetBound(0, 0, 0.5)
	res := s.ReSolveDual()
	if res.Status != StatusCanceled {
		t.Fatalf("ReSolveDual status = %v, want canceled", res.Status)
	}
}

// bealeLP is Beale's classic cycling example: min −¾x₄ + 150x₅ − x₆/50 + 6x₇
// subject to two degenerate rows with right-hand side 0 and x₆ ≤ 1. Under
// the textbook largest-coefficient rule the simplex cycles through six
// degenerate bases forever; the optimum is −1/20 at x₄ = 1/25, x₆ = 1.
func bealeLP() *Problem {
	p := &Problem{}
	x4 := p.AddVar(0, math.Inf(1), -0.75)
	x5 := p.AddVar(0, math.Inf(1), 150)
	x6 := p.AddVar(0, math.Inf(1), -0.02)
	x7 := p.AddVar(0, math.Inf(1), 6)
	p.AddRow([]int{x4, x5, x6, x7}, []float64{0.25, -60, -0.04, 9}, LE, 0)
	p.AddRow([]int{x4, x5, x6, x7}, []float64{0.5, -90, -0.02, 3}, LE, 0)
	p.AddRow([]int{x6}, []float64{1}, LE, 1)
	return p
}

// TestBealeCyclingTerminates solves Beale's example under both pricing
// rules, and again with the first attempt stalled so the solve climbs to
// the bland rung. Bland's rule is confined to degenerate stretches, so
// every run must end at the optimum with Bland switched off again by the
// non-degenerate pivots that reach it.
func TestBealeCyclingTerminates(t *testing.T) {
	for _, pricing := range []Pricing{PricingDantzig, PricingDevex} {
		for _, stall := range []int{0, 1} {
			s, err := NewSolver(bealeLP(), Options{Pricing: pricing, Fault: &stubFault{stallFirst: stall}})
			if err != nil {
				t.Fatal(err)
			}
			res := s.Solve()
			if res.Status != StatusOptimal || !approx(res.Obj, -0.05, 1e-9) {
				t.Fatalf("%v stall=%d: status=%v obj=%v, want optimal -0.05", pricing, stall, res.Status, res.Obj)
			}
			if !approx(res.X[0], 0.04, 1e-9) || !approx(res.X[2], 1, 1e-9) {
				t.Errorf("%v stall=%d: x = %v, want x4=1/25, x6=1", pricing, stall, res.X)
			}
			if stall > 0 && (res.Recovery == nil || len(res.Recovery.Rungs) != 1 || res.Recovery.Rungs[0] != RungBland) {
				t.Errorf("%v: Recovery = %+v, want the bland rung", pricing, res.Recovery)
			}
			if s.bland {
				t.Errorf("%v stall=%d: Bland still on after the solve's last non-degenerate pivot", pricing, stall)
			}
		}
	}
}
