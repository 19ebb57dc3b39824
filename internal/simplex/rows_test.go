package simplex

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"github.com/etransform/etransform/internal/lp"
)

// TestTableauViewIdentity: every optimal solve leaves a snapshot, so
// Basis and TableauView are non-nil after each optimal solve of
// randomBoxLP's family (3000 models) and of noDualSlackLP's phase-1
// family (300), with Bland pricing off and on. On each view, the
// tableau row of r evaluated at the basic column of any row r' must be
// the Kronecker delta δ_rr' (B⁻¹B = I), and the row's value at the full
// solution point (structurals + slacks) must reproduce the basic value.
func TestTableauViewIdentity(t *testing.T) {
	boxRng := rand.New(rand.NewSource(77))
	p1Rng := rand.New(rand.NewSource(6062))
	optimal, checked := 0, 0
	for trial := 0; trial < 3000; trial++ {
		models := []*lp.Model{randomBoxLP(boxRng)}
		if trial < 300 {
			m, _ := noDualSlackLP(p1Rng, trial%2 == 0)
			models = append(models, m)
		}
		for _, m := range models {
			for _, bland := range []bool{false, true} {
				s := NewSolver(&Options{Bland: bland})
				sol, err := s.SolveFrom(context.Background(), m, nil)
				if err != nil {
					t.Fatalf("trial %d (Bland %v): %v", trial, bland, err)
				}
				if sol.Status != lp.StatusOptimal {
					continue
				}
				optimal++
				v := s.TableauView()
				if s.Basis() == nil || v == nil {
					t.Fatalf("trial %d (Bland %v): optimal solve left Basis %v, TableauView %v", trial, bland,
						s.Basis() != nil, v != nil)
				}
				checked += checkTableauRows(t, trial, m, v)
			}
		}
	}
	if optimal < 3000 || checked < 5000 {
		t.Fatalf("only %d optimal solves and %d tableau rows checked: generator too degenerate", optimal, checked)
	}
}

// checkTableauRows checks the B⁻¹B = I and row-activity identities on
// every row of v, the view of an optimal solve of m, and returns the
// number of rows checked.
func checkTableauRows(t *testing.T, trial int, m *lp.Model, v *TableauView) int {
	t.Helper()
	n, nr := v.NumStruct(), v.NumRows()
	if n != m.NumVars() || nr != m.NumRows() {
		t.Fatalf("trial %d: view dims %dx%d vs model %dx%d", trial, nr, n, m.NumRows(), m.NumVars())
	}
	var alpha []float64
	for r := 0; r < nr; r++ {
		alpha = v.Row(r, alpha)
		if len(alpha) != n+nr {
			t.Fatalf("trial %d: row length %d, want %d", trial, len(alpha), n+nr)
		}
		for r2 := 0; r2 < nr; r2++ {
			want := 0.0
			if r2 == r {
				want = 1
			}
			if got := alpha[v.BasicCol(r2)]; math.Abs(got-want) > 1e-7 {
				t.Fatalf("trial %d: alpha[basic(%d)] = %v in row %d, want %v", trial, r2, got, r, want)
			}
		}
		if diff := math.Abs(v.Value(v.BasicCol(r)) - v.BasicValue(r)); diff > 1e-9 {
			t.Fatalf("trial %d row %d: Value(basic) %v vs BasicValue %v", trial, r, v.Value(v.BasicCol(r)), v.BasicValue(r))
		}
		// Row identity: α is row r of B⁻¹[A I], and the full point
		// z = (x, s) satisfies [A I]z = rhs, so α·z = (B⁻¹rhs)_r.
		// The slack part of α is exactly ρ = B⁻ᵀe_r, so the right-hand
		// side is Σ_r' α_{n+r'}·rhs_r'.
		act, want := 0.0, 0.0
		for j := 0; j < n+nr; j++ {
			act += alpha[j] * v.Value(j)
		}
		for r2 := 0; r2 < nr; r2++ {
			want += alpha[n+r2] * m.Row(lp.RowID(r2)).RHS
		}
		if diff := math.Abs(act - want); diff > 1e-6*math.Max(1, math.Abs(want)) {
			t.Fatalf("trial %d row %d: tableau row activity %v vs B⁻¹rhs %v", trial, r, act, want)
		}
	}
	return nr
}

// TestExtendRowsWarmResolve: appending a violated valid inequality to a
// solved model and warm-starting from the extended basis must succeed,
// stay optimal, and never improve (this is minimization: the objective
// can only move up when the feasible region shrinks).
func TestExtendRowsWarmResolve(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	resolved, tightened := 0, 0
	for trial := 0; trial < 200; trial++ {
		m := randomBoxLP(rng)
		s := NewSolver(nil)
		sol, err := s.SolveFrom(context.Background(), m, nil)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if sol.Status != lp.StatusOptimal {
			continue
		}
		basis := s.Basis()
		if basis == nil {
			continue
		}

		// A cutting-plane-shaped row: bound a random subset of variables
		// away from the current vertex by a margin, Σ x_j ≤ Σ x*_j − δ.
		// (Not a valid MILP cut — this test is about the warm path, so
		// validity against integer points is irrelevant.)
		var terms []lp.Term
		act := 0.0
		for j := 0; j < m.NumVars(); j++ {
			if rng.Intn(2) == 0 {
				continue
			}
			terms = append(terms, lp.Term{Var: lp.VarID(j), Coef: 1})
			act += sol.X[j]
		}
		if len(terms) == 0 {
			continue
		}
		child := m.Clone()
		child.AddRow("cut", terms, lp.LE, act-0.25)
		if child.Err() != nil {
			t.Fatalf("trial %d: add row: %v", trial, child.Err())
		}

		ws := NewSolver(nil)
		got, err := ws.SolveFrom(context.Background(), child, basis.ExtendRows(1))
		if err != nil {
			t.Fatalf("trial %d: warm re-solve: %v", trial, err)
		}
		if got.Status == lp.StatusInfeasible {
			continue // the margin cut off the whole box: legitimate
		}
		if got.Status != lp.StatusOptimal {
			t.Fatalf("trial %d: warm re-solve status %v", trial, got.Status)
		}
		resolved++
		if got.Objective < sol.Objective-1e-7*math.Max(1, math.Abs(sol.Objective)) {
			t.Fatalf("trial %d: cut improved the minimum %v → %v", trial, sol.Objective, got.Objective)
		}
		if got.Objective > sol.Objective+1e-9 {
			tightened++
		}

		// Cross-check against a cold solve of the same child.
		cold, err := NewSolver(nil).SolveFrom(context.Background(), child, nil)
		if err != nil {
			t.Fatalf("trial %d: cold re-solve: %v", trial, err)
		}
		if cold.Status != got.Status {
			t.Fatalf("trial %d: warm status %v vs cold %v", trial, got.Status, cold.Status)
		}
		if diff := math.Abs(cold.Objective - got.Objective); diff > 1e-6*math.Max(1, math.Abs(cold.Objective)) {
			t.Fatalf("trial %d: warm objective %v vs cold %v", trial, got.Objective, cold.Objective)
		}
	}
	if resolved < 50 || tightened < 20 {
		t.Fatalf("only %d warm re-solves (%d tightened) — generator too degenerate", resolved, tightened)
	}
}

// TestExtendRowsMultiple: extending by several rows at once keeps the
// basis consistent with the grown model.
func TestExtendRowsMultiple(t *testing.T) {
	m := lp.NewModel("multi")
	a := m.AddVar(lp.Variable{Name: "a", Upper: 4, Cost: -1})
	b := m.AddVar(lp.Variable{Name: "b", Upper: 4, Cost: -1})
	m.AddRow("r0", []lp.Term{{Var: a, Coef: 1}, {Var: b, Coef: 1}}, lp.LE, 6)
	s := NewSolver(nil)
	sol, err := s.SolveFrom(context.Background(), m, nil)
	if err != nil || sol.Status != lp.StatusOptimal {
		t.Fatalf("base solve: %v status %v", err, sol.Status)
	}
	child := m.Clone()
	child.AddRow("c1", []lp.Term{{Var: a, Coef: 1}}, lp.LE, 3)
	child.AddRow("c2", []lp.Term{{Var: b, Coef: 1}}, lp.LE, 2)
	got, err := NewSolver(nil).SolveFrom(context.Background(), child, s.Basis().ExtendRows(2))
	if err != nil || got.Status != lp.StatusOptimal {
		t.Fatalf("extended solve: %v status %v", err, got.Status)
	}
	if math.Abs(got.Objective - -5) > 1e-9 {
		t.Fatalf("objective %v, want -5", got.Objective)
	}
}

// TestDropRowsWarmResolve: DropRows is the inverse of ExtendRows for
// rows whose slack is basic. On random solved LPs, dropping a random
// subset of such rows leaves a basis that installs on the trimmed model
// and is still optimal there, so the warm re-solve takes no pivots and
// keeps the parent's objective, which exactLP confirms; dropping a row
// whose slack is nonbasic returns nil.
func TestDropRowsWarmResolve(t *testing.T) {
	rng := rand.New(rand.NewSource(404))
	trimmed, refused := 0, 0
	for trial := 0; trial < 300; trial++ {
		m := randomLP(rng, 2+rng.Intn(8), 2+rng.Intn(6))
		s := NewSolver(nil)
		sol, err := s.SolveFrom(context.Background(), m, nil)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if sol.Status != lp.StatusOptimal {
			continue
		}
		basis := s.Basis()
		if basis == nil {
			continue
		}
		n := m.NumVars()
		var drop []int
		for r := 0; r < m.NumRows(); r++ {
			switch {
			case basis.status[n+r] != basic:
				if basis.DropRows([]int{r}) != nil {
					t.Fatalf("trial %d: dropping row %d with a nonbasic slack returned a basis", trial, r)
				}
				refused++
			case len(drop) < m.NumRows()-1 && rng.Intn(2) == 0:
				drop = append(drop, r)
			}
		}
		if len(drop) == 0 {
			continue
		}
		// The trimmed model keeps the other rows in their original order.
		dropped := make(map[int]bool, len(drop))
		for _, r := range drop {
			dropped[r] = true
		}
		keep := lp.NewModel("trimmed")
		for j := 0; j < n; j++ {
			keep.AddVar(m.Var(lp.VarID(j)))
		}
		for r := 0; r < m.NumRows(); r++ {
			if !dropped[r] {
				row := m.Row(lp.RowID(r))
				keep.AddRow(row.Name, row.Terms, row.Sense, row.RHS)
			}
		}
		nb := basis.DropRows(drop)
		if nb == nil {
			t.Fatalf("trial %d: DropRows(%v) refused rows whose slacks are basic", trial, drop)
		}
		got, err := NewSolver(nil).SolveFrom(context.Background(), keep, nb)
		if err != nil {
			t.Fatalf("trial %d: warm re-solve: %v", trial, err)
		}
		if got.Status != lp.StatusOptimal || got.Iterations != 0 {
			t.Fatalf("trial %d: warm re-solve of the trimmed model: %v after %d pivots, want optimal after 0",
				trial, got.Status, got.Iterations)
		}
		if d := math.Abs(got.Objective - sol.Objective); d > 1e-9*math.Max(1, math.Abs(sol.Objective)) {
			t.Fatalf("trial %d: trimmed objective %v, parent %v", trial, got.Objective, sol.Objective)
		}
		matchesExact(t, "trimmed", keep, got)
		trimmed++
	}
	if trimmed < 50 || refused < 50 {
		t.Fatalf("only %d trimmed re-solves and %d refusals: generator too degenerate", trimmed, refused)
	}
}
