package simplex

import (
	"context"
	"math"
	"strings"
	"testing"
	"time"

	"github.com/etransform/etransform/internal/lp"
	"github.com/etransform/etransform/internal/obs"
	"github.com/etransform/etransform/internal/resilience/faultinject"
)

// resilienceModel is a small LP that needs a handful of pivots.
func resilienceModel() *lp.Model {
	m := lp.NewModel("resilience")
	x := m.AddContinuous("x", 0, 10, -1)
	y := m.AddContinuous("y", 0, 10, -2)
	z := m.AddContinuous("z", 0, 10, -3)
	m.AddRow("r1", []lp.Term{{Var: x, Coef: 1}, {Var: y, Coef: 2}, {Var: z, Coef: 1}}, lp.LE, 14)
	m.AddRow("r2", []lp.Term{{Var: y, Coef: 1}, {Var: z, Coef: 3}}, lp.LE, 12)
	m.AddRow("r3", []lp.Term{{Var: x, Coef: 1}, {Var: z, Coef: 1}}, lp.LE, 8)
	return m
}

func TestInjectedPivotFailure(t *testing.T) {
	inj := faultinject.New(1, faultinject.Fault{Kind: faultinject.KindPivot})
	_, err := Solve(resilienceModel(), &Options{Inject: inj})
	if err == nil || !strings.Contains(err.Error(), "injected pivot failure") {
		t.Fatalf("err = %v, want injected pivot failure", err)
	}
	if !inj.Fired(faultinject.KindPivot) {
		t.Error("injector does not record the pivot fault as fired")
	}
}

func TestInjectedStall(t *testing.T) {
	inj := faultinject.New(1, faultinject.Fault{Kind: faultinject.KindStall})
	sol, err := Solve(resilienceModel(), &Options{Inject: inj})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != lp.StatusIterLimit {
		t.Fatalf("status = %v, want iteration-limit from injected stall", sol.Status)
	}
	if sol.Limit != lp.LimitIterations {
		t.Errorf("Limit = %q, want %q", sol.Limit, lp.LimitIterations)
	}
}

func TestInjectedCorruption(t *testing.T) {
	inj := faultinject.New(1, faultinject.Fault{Kind: faultinject.KindCorrupt})
	sol, err := Solve(resilienceModel(), &Options{Inject: inj})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != lp.StatusOptimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if !math.IsNaN(sol.Objective) || !math.IsNaN(sol.X[0]) {
		t.Errorf("corruption not applied: obj %v, x0 %v", sol.Objective, sol.X[0])
	}
}

func TestLateFaultLeavesEarlierSolvesClean(t *testing.T) {
	// A solver whose injector arms the fault on the 2nd solve's pivots
	// must leave the 1st solve untouched — and the two clean solves must
	// agree exactly.
	clean, err := Solve(resilienceModel(), nil)
	if err != nil {
		t.Fatal(err)
	}
	pivots := clean.Iterations
	inj := faultinject.New(1, faultinject.Fault{Kind: faultinject.KindPivot, After: pivots + 1})
	s := NewSolver(&Options{Inject: inj})
	first, err := s.SolveFrom(context.Background(), resilienceModel(), nil)
	if err != nil {
		t.Fatalf("first solve failed despite fault armed beyond its pivots: %v", err)
	}
	if first.Objective != clean.Objective {
		t.Errorf("objective drifted under armed-but-silent injector: %v vs %v", first.Objective, clean.Objective)
	}
	if _, err := s.SolveFrom(context.Background(), resilienceModel(), nil); err == nil {
		t.Error("second solve should hit the armed pivot fault")
	}
}

func TestDeadlineSurrendersWithWallClockLimit(t *testing.T) {
	sol, err := Solve(resilienceModel(), &Options{Deadline: time.Now().Add(-time.Second)})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != lp.StatusIterLimit {
		t.Fatalf("status = %v, want iteration-limit from expired deadline", sol.Status)
	}
	if sol.Limit != lp.LimitWallClock {
		t.Errorf("Limit = %q, want %q", sol.Limit, lp.LimitWallClock)
	}
}

func TestSolveContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := SolveContext(ctx, resilienceModel(), nil)
	if err == nil || !strings.Contains(err.Error(), "canceled") {
		t.Fatalf("err = %v, want cancellation", err)
	}
}

func TestSolveContextBackgroundMatchesSolve(t *testing.T) {
	a, err := Solve(resilienceModel(), nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SolveContext(context.Background(), resilienceModel(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.Objective != b.Objective || a.Iterations != b.Iterations {
		t.Errorf("SolveContext diverges from Solve: (%v, %d) vs (%v, %d)",
			b.Objective, b.Iterations, a.Objective, a.Iterations)
	}
}

// restorationChild returns a child LP and its parent's optimal basis
// such that SolveFrom restores the child with one dual pivot and
// finishes without a primal pivot: the parent min x + 2y, x + y ≥ 1
// rests at x = 1, and the child's x ≤ 0.5 brings y in at 0.5.
func restorationChild(t *testing.T) (*lp.Model, *Basis) {
	t.Helper()
	m := lp.NewModel("restore")
	x := m.AddContinuous("x", 0, 3, 1)
	y := m.AddContinuous("y", 0, 3, 2)
	m.AddRow("need", []lp.Term{{Var: x, Coef: 1}, {Var: y, Coef: 1}}, lp.GE, 1)
	s := NewSolver(nil)
	if sol, err := s.SolveFrom(context.Background(), m, nil); err != nil || sol.Status != lp.StatusOptimal {
		t.Fatalf("parent: %v, %v", sol, err)
	}
	child := m.Clone()
	child.SetBounds(x, 0, 0.5)
	met := obs.NewMetrics()
	sol, err := NewSolver(&Options{Metrics: met}).SolveFrom(context.Background(), child, s.Basis())
	if err != nil || sol.Status != lp.StatusOptimal || math.Abs(sol.Objective-1.5) > 1e-9 {
		t.Fatalf("clean child: %v, %v, want optimal 1.5", sol, err)
	}
	if dual := met.Counter(obs.MetricSimplexDualPivots); dual == 0 || dual != int64(sol.Iterations) {
		t.Fatalf("clean child took %d pivots, %d of them dual: want dual pivots only", sol.Iterations, dual)
	}
	return child, s.Basis()
}

// TestInjectedPivotFailureInDualRestoration: the pivot site fires on
// dual restoration pivots as on primal ones, so an armed fault lands in
// a warm start that takes no primal pivot.
func TestInjectedPivotFailureInDualRestoration(t *testing.T) {
	child, basis := restorationChild(t)
	inj := faultinject.New(1, faultinject.Fault{Kind: faultinject.KindPivot, After: 0})
	sol, err := NewSolver(&Options{Inject: inj}).SolveFrom(context.Background(), child, basis)
	if err == nil || !strings.Contains(err.Error(), "injected pivot failure") {
		t.Fatalf("got %v, %v; want the injected pivot failure", sol, err)
	}
}

// TestInjectedStallInDualRestoration: the stall site fires once per
// restoration iteration, so an armed stall surrenders before the first
// dual pivot instead of in phase 2.
func TestInjectedStallInDualRestoration(t *testing.T) {
	child, basis := restorationChild(t)
	inj := faultinject.New(1, faultinject.Fault{Kind: faultinject.KindStall, After: 0})
	sol, err := NewSolver(&Options{Inject: inj}).SolveFrom(context.Background(), child, basis)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != lp.StatusIterLimit || sol.Limit != lp.LimitIterations || sol.Iterations != 0 {
		t.Fatalf("got (%v, %q, %d pivots), want an iteration limit before the first pivot",
			sol.Status, sol.Limit, sol.Iterations)
	}
}
