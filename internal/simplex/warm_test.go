package simplex

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"github.com/etransform/etransform/internal/lp"
	"github.com/etransform/etransform/internal/obs"
)

// branchLike tightens one variable's bounds the way branch & bound
// would: fix it toward one side of its current optimal value.
func branchLike(m *lp.Model, sol *lp.Solution, rng *rand.Rand) {
	j := rng.Intn(m.NumVars())
	v := m.Var(lp.VarID(j))
	x := sol.X[j]
	if rng.Intn(2) == 0 {
		hi := math.Floor(x)
		if hi < v.Lower {
			hi = v.Lower
		}
		m.SetBounds(lp.VarID(j), v.Lower, hi)
	} else {
		lo := math.Ceil(x)
		if lo > v.Upper {
			lo = v.Upper
		}
		m.SetBounds(lp.VarID(j), lo, v.Upper)
	}
}

// TestWarmSolveFromMatchesCold solves random parent LPs cold, branches
// a bound, and checks that the warm-started child solve agrees with an
// independent cold solve of the same child on status and objective.
func TestWarmSolveFromMatchesCold(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	warmSolves, hits := 0, int64(0)
	for trial := 0; trial < 300; trial++ {
		parent := randomBoxLP(rng)
		warm := NewSolver(nil)
		psol, err := warm.Solve(parent)
		if err != nil {
			t.Fatalf("trial %d: parent solve: %v", trial, err)
		}
		if psol.Status != lp.StatusOptimal {
			continue
		}
		basis := warm.Basis()
		if basis == nil {
			continue
		}
		child := parent.Clone()
		branchLike(child, psol, rng)

		met := obs.NewMetrics()
		warmOpts := Options{Metrics: met}
		ws := NewSolver(&warmOpts)
		got, err := ws.SolveFrom(context.Background(), child, basis)
		if err != nil {
			t.Fatalf("trial %d: warm solve: %v", trial, err)
		}
		want, err := Solve(child, nil)
		if err != nil {
			t.Fatalf("trial %d: cold solve: %v", trial, err)
		}
		if got.Status != want.Status {
			t.Fatalf("trial %d: warm status %v, cold status %v", trial, got.Status, want.Status)
		}
		if got.Status == lp.StatusOptimal {
			if diff := math.Abs(got.Objective - want.Objective); diff > 1e-6*math.Max(1, math.Abs(want.Objective)) {
				t.Fatalf("trial %d: warm objective %v, cold %v (diff %g)", trial, got.Objective, want.Objective, diff)
			}
		}
		warmSolves++
		h, miss := met.Counter(obs.MetricSimplexWarmHits), met.Counter(obs.MetricSimplexWarmMisses)
		if h+miss != 1 {
			t.Fatalf("trial %d: warm_hits %d + warm_misses %d != 1", trial, h, miss)
		}
		if h == 1 && met.Counter(obs.MetricSimplexPhase1) != 0 {
			t.Fatalf("trial %d: hit but phase-1 pivots were counted", trial)
		}
		if met.Counter(obs.MetricSimplexPivots) != int64(got.Iterations) {
			t.Fatalf("trial %d: folded pivots %d != solution iterations %d",
				trial, met.Counter(obs.MetricSimplexPivots), got.Iterations)
		}
		hits += h
	}
	if warmSolves < 100 {
		t.Fatalf("only %d warm solves exercised; generator too restrictive", warmSolves)
	}
	if hits == 0 {
		t.Fatal("no warm hits across all trials; warm path never engaged")
	}
}

// TestWarmNilBasisEqualsSolve: SolveFrom with a nil basis must behave
// exactly like Solve, down to the pivot count.
func TestWarmNilBasisEqualsSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		m := randomBoxLP(rng)
		a, err := NewSolver(nil).SolveFrom(context.Background(), m, nil)
		if err != nil {
			t.Fatalf("SolveFrom: %v", err)
		}
		b, err := Solve(m, nil)
		if err != nil {
			t.Fatalf("Solve: %v", err)
		}
		if a.Status != b.Status || a.Iterations != b.Iterations || a.Objective != b.Objective {
			t.Fatalf("trial %d: nil-basis SolveFrom (%v, %d iters, obj %v) != Solve (%v, %d iters, obj %v)",
				trial, a.Status, a.Iterations, a.Objective, b.Status, b.Iterations, b.Objective)
		}
	}
}

// TestWarmResolveSameModelSkipsPhase1: re-solving the very model that
// produced the basis is the ideal warm start — zero restoration work,
// phase 1 skipped, same objective to the bit.
func TestWarmResolveSameModelSkipsPhase1(t *testing.T) {
	m := lp.NewModel("eqge")
	x := m.AddContinuous("x", 0, math.Inf(1), 2)
	y := m.AddContinuous("y", 0, math.Inf(1), 3)
	m.AddRow("sum", []lp.Term{{Var: x, Coef: 1}, {Var: y, Coef: 1}}, lp.EQ, 10)
	m.AddRow("diff", []lp.Term{{Var: y, Coef: 1}, {Var: x, Coef: -1}}, lp.GE, 2)

	s := NewSolver(nil)
	cold, err := s.Solve(m)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Status != lp.StatusOptimal {
		t.Fatalf("cold status = %v", cold.Status)
	}
	basis := s.Basis()
	if basis == nil {
		t.Fatal("no basis after optimal solve")
	}

	met := obs.NewMetrics()
	ws := NewSolver(&Options{Metrics: met})
	warm, err := ws.SolveFrom(context.Background(), m, basis)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Status != lp.StatusOptimal || warm.Objective != cold.Objective {
		t.Fatalf("warm (%v, %v) != cold (%v, %v)", warm.Status, warm.Objective, cold.Status, cold.Objective)
	}
	if met.Counter(obs.MetricSimplexWarmHits) != 1 {
		t.Fatalf("warm_hits = %d, want 1", met.Counter(obs.MetricSimplexWarmHits))
	}
	if met.Counter(obs.MetricSimplexPhase1) != 0 {
		t.Fatal("phase-1 pivots recorded on a warm hit")
	}
	if warm.Iterations != 0 {
		t.Fatalf("re-solve from own optimal basis took %d pivots, want 0", warm.Iterations)
	}
}

// TestWarmStaleBasisFallsBack: a basis of the wrong shape must be
// rejected and the solve must fall back to the cold path, counted as a
// miss, with the cold answer.
func TestWarmStaleBasisFallsBack(t *testing.T) {
	small := lp.NewModel("small")
	a := small.AddContinuous("a", 0, 2, -1)
	small.AddRow("r", []lp.Term{{Var: a, Coef: 1}}, lp.LE, 1)
	s := NewSolver(nil)
	if _, err := s.Solve(small); err != nil {
		t.Fatal(err)
	}
	stale := s.Basis()
	if stale == nil {
		t.Fatal("no basis from donor model")
	}

	big := lp.NewModel("big")
	x := big.AddContinuous("x", 0, 3, -1)
	y := big.AddContinuous("y", 0, 3, -2)
	big.AddRow("cap", []lp.Term{{Var: x, Coef: 1}, {Var: y, Coef: 1}}, lp.LE, 4)

	met := obs.NewMetrics()
	ws := NewSolver(&Options{Metrics: met})
	sol, err := ws.SolveFrom(context.Background(), big, stale)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != lp.StatusOptimal || math.Abs(sol.Objective-(-7)) > 1e-7 {
		t.Fatalf("fallback result (%v, %v), want optimal -7", sol.Status, sol.Objective)
	}
	if met.Counter(obs.MetricSimplexWarmMisses) != 1 || met.Counter(obs.MetricSimplexWarmHits) != 0 {
		t.Fatalf("warm_misses = %d, warm_hits = %d, want 1/0",
			met.Counter(obs.MetricSimplexWarmMisses), met.Counter(obs.MetricSimplexWarmHits))
	}
}

// TestWarmInfeasibleChild: when the branched child is LP-infeasible the
// warm path cannot prove it — restoration finds no eligible column and
// the cold path must deliver the infeasibility verdict.
func TestWarmInfeasibleChild(t *testing.T) {
	m := lp.NewModel("par")
	x := m.AddContinuous("x", 0, 5, 1)
	y := m.AddContinuous("y", 0, 5, 1)
	m.AddRow("need", []lp.Term{{Var: x, Coef: 1}, {Var: y, Coef: 1}}, lp.GE, 6)
	s := NewSolver(nil)
	psol, err := s.Solve(m)
	if err != nil {
		t.Fatal(err)
	}
	if psol.Status != lp.StatusOptimal {
		t.Fatalf("parent status = %v", psol.Status)
	}
	basis := s.Basis()

	child := m.Clone()
	child.SetBounds(x, 0, 1)
	child.SetBounds(y, 0, 1) // x+y >= 6 now impossible

	sol, err := NewSolver(nil).SolveFrom(context.Background(), child, basis)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != lp.StatusInfeasible {
		t.Fatalf("child status = %v, want infeasible", sol.Status)
	}
}

// TestWarmBasisAvailability: Basis must return nil when the last solve
// did not end at an optimal basis.
func TestWarmBasisAvailability(t *testing.T) {
	infeas := lp.NewModel("infeas")
	x := infeas.AddContinuous("x", 0, 5, 1)
	infeas.AddRow("lo", []lp.Term{{Var: x, Coef: 1}}, lp.GE, 10)
	s := NewSolver(nil)
	if _, err := s.Solve(infeas); err != nil {
		t.Fatal(err)
	}
	if s.Basis() != nil {
		t.Fatal("Basis() non-nil after infeasible solve")
	}

	unb := lp.NewModel("unb")
	u := unb.AddContinuous("u", 0, math.Inf(1), -1)
	unb.AddRow("r", []lp.Term{{Var: u, Coef: -1}}, lp.LE, 0)
	if _, err := s.Solve(unb); err != nil {
		t.Fatal(err)
	}
	if s.Basis() != nil {
		t.Fatal("Basis() non-nil after unbounded solve")
	}

	if NewSolver(nil).Basis() != nil {
		t.Fatal("Basis() non-nil before any solve")
	}
}

// TestBasisClearedByEarlyReturnSolve: a solve that returns before the
// tableau is reset (no variables, or an invalid model) must still clear
// the previous solve's basis, so Basis and TableauView report nil.
func TestBasisClearedByEarlyReturnSolve(t *testing.T) {
	tiny := lp.NewModel("tiny")
	x := tiny.AddContinuous("x", 0, 4, -1)
	tiny.AddRow("cap", []lp.Term{{Var: x, Coef: 1}}, lp.LE, 3)
	bad := lp.NewModel("bad")
	y := bad.AddContinuous("y", 0, 1, 1)
	bad.AddRow("nan", []lp.Term{{Var: y, Coef: math.NaN()}}, lp.LE, 1)
	for _, tc := range []struct {
		next    *lp.Model
		wantErr bool
	}{{lp.NewModel("empty"), false}, {bad, true}} {
		s := NewSolver(nil)
		if sol, err := s.Solve(tiny); err != nil || sol.Status != lp.StatusOptimal {
			t.Fatalf("tiny: %v, %v", sol, err)
		}
		if s.Basis() == nil || s.TableauView() == nil {
			t.Fatal("no basis after an optimal solve")
		}
		name := tc.next.Name
		if _, err := s.Solve(tc.next); (err != nil) != tc.wantErr {
			t.Fatalf("%s: err = %v, want error %v", name, err, tc.wantErr)
		}
		if b := s.Basis(); b != nil {
			t.Errorf("%s: Basis() = %+v after the solve, want nil", name, b)
		}
		if s.TableauView() != nil {
			t.Errorf("%s: TableauView() non-nil after the solve", name)
		}
	}
}

// TestWarmBasisOutlivesSolver: the snapshot must stay valid after the
// solver that produced it moves on to other models.
func TestWarmBasisOutlivesSolver(t *testing.T) {
	m := lp.NewModel("tiny")
	x := m.AddContinuous("x", 0, 3, -1)
	y := m.AddContinuous("y", 0, 3, -2)
	m.AddRow("cap", []lp.Term{{Var: x, Coef: 1}, {Var: y, Coef: 1}}, lp.LE, 4)
	s := NewSolver(nil)
	if _, err := s.Solve(m); err != nil {
		t.Fatal(err)
	}
	basis := s.Basis()

	// Churn the donor solver through an unrelated model.
	other := lp.NewModel("other")
	u := other.AddContinuous("u", 0, 9, 1)
	other.AddRow("r", []lp.Term{{Var: u, Coef: 1}}, lp.GE, 2)
	if _, err := s.Solve(other); err != nil {
		t.Fatal(err)
	}

	sol, err := NewSolver(nil).SolveFrom(context.Background(), m, basis)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != lp.StatusOptimal || math.Abs(sol.Objective-(-7)) > 1e-7 {
		t.Fatalf("got (%v, %v), want optimal -7", sol.Status, sol.Objective)
	}
	if basis.MemBytes() <= 0 {
		t.Fatal("MemBytes must be positive for a real basis")
	}
}
