package simplex

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"github.com/etransform/etransform/internal/lp"
)

// The reference suite: every LP is solved by the engine and by exactLP,
// the exact rational simplex in exact_test.go, and the outcomes must
// agree. Pivot sequences and degenerate vertices may differ, so the
// contract is status + objective, not iteration counts or points.

// matchesExact asserts that the engine's solution of m agrees with
// exactLP on status and, when optimal, on objective to a scaled 1e-6.
func matchesExact(t *testing.T, label string, m *lp.Model, got *lp.Solution) {
	t.Helper()
	status, obj := exactLP(m)
	if got.Status != status {
		t.Fatalf("%s: status %v, exact %v", label, got.Status, status)
	}
	if status != lp.StatusOptimal {
		return
	}
	if d := math.Abs(got.Objective - obj); d > 1e-6*math.Max(1, math.Abs(obj)) {
		t.Fatalf("%s: objective %v, exact %v (diff %g)", label, got.Objective, obj, d)
	}
}

// TestExactReferenceRandomLPs solves 400 random LPs cold — the general
// mix plus the box-bounded family that exercises bound flips — and
// checks each against the exact reference.
func TestExactReferenceRandomLPs(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	trials := 400
	if testing.Short() {
		trials = 80
	}
	for trial := 0; trial < trials; trial++ {
		var m *lp.Model
		if trial%2 == 0 {
			m = randomLP(rng, 1+rng.Intn(14), 1+rng.Intn(10))
		} else {
			m = randomBoxLP(rng)
		}
		sol, err := Solve(m, nil)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		matchesExact(t, "cold", m, sol)
	}
}

// TestExactReferenceWarm repeats the check over the warm path: a parent
// LP is solved, one bound is tightened branch & bound style, and both
// SolveFrom(ctx, child, parentBasis) and a cold solve of the child must match
// the exact reference.
func TestExactReferenceWarm(t *testing.T) {
	rng := rand.New(rand.NewSource(777))
	trials := 150
	if testing.Short() {
		trials = 30
	}
	for trial := 0; trial < trials; trial++ {
		parent := randomLP(rng, 2+rng.Intn(10), 1+rng.Intn(6))
		s := NewSolver(nil)
		p, err := s.SolveFrom(context.Background(), parent, nil)
		if err != nil {
			t.Fatalf("trial %d parent: %v", trial, err)
		}
		if p.Status != lp.StatusOptimal {
			continue
		}
		basis := s.Basis()

		branchLike(parent, p, rng)
		warm, err := s.SolveFrom(context.Background(), parent, basis)
		if err != nil {
			t.Fatalf("trial %d warm child: %v", trial, err)
		}
		matchesExact(t, "warm", parent, warm)
		cold, err := Solve(parent, nil)
		if err != nil {
			t.Fatalf("trial %d cold child: %v", trial, err)
		}
		matchesExact(t, "cold", parent, cold)
	}
}

// TestExactReferenceBland checks forced Bland pricing, the anti-cycling
// mode, against the exact reference.
func TestExactReferenceBland(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 100; trial++ {
		m := randomLP(rng, 1+rng.Intn(10), 1+rng.Intn(6))
		sol, err := Solve(m, &Options{Bland: true})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		matchesExact(t, "bland", m, sol)
	}
}
