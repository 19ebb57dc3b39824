package simplex

import (
	"context"
	"math/rand"
	"testing"

	"github.com/etransform/etransform/internal/lp"
)

// randomLP builds a random bounded LP with n variables and rows rows.
func randomLP(rng *rand.Rand, n, rows int) *lp.Model {
	m := lp.NewModel("rnd")
	for j := 0; j < n; j++ {
		m.AddContinuous("", 0, float64(1+rng.Intn(10)), float64(rng.Intn(21)-10))
	}
	for r := 0; r < rows; r++ {
		var terms []lp.Term
		for j := 0; j < n; j++ {
			if c := rng.Intn(9) - 4; c != 0 {
				terms = append(terms, lp.Term{Var: lp.VarID(j), Coef: float64(c)})
			}
		}
		sense := []lp.Sense{lp.LE, lp.GE, lp.EQ}[rng.Intn(3)]
		m.AddRow("", terms, sense, float64(rng.Intn(15)-3))
	}
	return m
}

// TestSolverReuseMatchesFreshSolve proves the scratch-reusing Solver is
// bit-identical to a fresh per-call Solve across a sequence of models of
// varying shape and size — the property the milp workers rely on.
func TestSolverReuseMatchesFreshSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	reused := NewSolver(nil)
	trials := 200
	if testing.Short() {
		trials = 40
	}
	for trial := 0; trial < trials; trial++ {
		n := 1 + rng.Intn(12)
		rows := 1 + rng.Intn(8)
		m := randomLP(rng, n, rows)

		got, errGot := reused.SolveFrom(context.Background(), m, nil)
		want, errWant := Solve(m, nil)
		if (errGot == nil) != (errWant == nil) {
			t.Fatalf("trial %d: error mismatch: reused %v, fresh %v", trial, errGot, errWant)
		}
		if errGot != nil {
			continue
		}
		if got.Status != want.Status || got.Iterations != want.Iterations {
			t.Fatalf("trial %d: status/iters mismatch: reused (%v,%d), fresh (%v,%d)",
				trial, got.Status, got.Iterations, want.Status, want.Iterations)
		}
		if got.Status != lp.StatusOptimal {
			continue
		}
		if got.Objective != want.Objective {
			t.Fatalf("trial %d: objective mismatch: reused %v, fresh %v", trial, got.Objective, want.Objective)
		}
		for j := range want.X {
			if got.X[j] != want.X[j] {
				t.Fatalf("trial %d: x[%d] mismatch: reused %v, fresh %v", trial, j, got.X[j], want.X[j])
			}
		}
		for r := range want.DualValues {
			if got.DualValues[r] != want.DualValues[r] {
				t.Fatalf("trial %d: dual[%d] mismatch: reused %v, fresh %v", trial, r, got.DualValues[r], want.DualValues[r])
			}
		}
	}
}

// TestSolverShrinkingModels exercises reuse where a large solve precedes
// small ones, so stale tail state in reused slices would be live if reset
// failed to truncate or zero it.
func TestSolverShrinkingModels(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	reused := NewSolver(nil)
	big := randomLP(rng, 30, 20)
	if _, err := reused.SolveFrom(context.Background(), big, nil); err != nil {
		t.Fatalf("big solve: %v", err)
	}
	for trial := 0; trial < 50; trial++ {
		m := randomLP(rng, 1+rng.Intn(5), 1+rng.Intn(3))
		got, errGot := reused.SolveFrom(context.Background(), m, nil)
		want, errWant := Solve(m, nil)
		if (errGot == nil) != (errWant == nil) {
			t.Fatalf("trial %d: error mismatch: %v vs %v", trial, errGot, errWant)
		}
		if errGot != nil {
			continue
		}
		if got.Status != want.Status || got.Objective != want.Objective || got.Iterations != want.Iterations {
			t.Fatalf("trial %d: (%v, %v, %d) vs (%v, %v, %d)", trial,
				got.Status, got.Objective, got.Iterations, want.Status, want.Objective, want.Iterations)
		}
	}
}
