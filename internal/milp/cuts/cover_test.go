package cuts

import (
	"fmt"
	"math"
	"testing"

	"github.com/etransform/etransform/internal/lp"
	"github.com/etransform/etransform/internal/simplex"
)

// binModel builds a model of n binary variables with the given rows.
func binModel(t *testing.T, n int, rows []lp.Row) *lp.Model {
	t.Helper()
	m := lp.NewModel("cover")
	for j := 0; j < n; j++ {
		m.AddVar(lp.Variable{Name: fmt.Sprintf("x%d", j), Upper: 1, Cost: -1, Type: lp.Binary})
	}
	for _, r := range rows {
		m.AddRow(r.Name, r.Terms, r.Sense, r.RHS)
	}
	if err := m.Err(); err != nil {
		t.Fatalf("model build: %v", err)
	}
	return m
}

// TestCoverDegenerateRows is the regression table for the degenerate
// knapsack shapes the separator must reject rather than loop over —
// most importantly the rhs = 0 rows a zero-capacity DC produces, whose
// "cover" would be the empty set and whose cut (Σ∅ ≤ −1) eliminates
// every point.
func TestCoverDegenerateRows(t *testing.T) {
	terms2 := []lp.Term{{Var: 0, Coef: 1}, {Var: 1, Coef: 2}}
	cases := []struct {
		name     string
		rows     []lp.Row
		x        []float64
		wantCuts int
	}{
		{
			name:     "zero capacity",
			rows:     []lp.Row{{Name: "cap", Terms: terms2, Sense: lp.LE, RHS: 0}},
			x:        []float64{0.5, 0.5},
			wantCuts: 0,
		},
		{
			name:     "negative capacity",
			rows:     []lp.Row{{Name: "cap", Terms: terms2, Sense: lp.LE, RHS: -1}},
			x:        []float64{0.5, 0.5},
			wantCuts: 0,
		},
		{
			name:     "no cover exists",
			rows:     []lp.Row{{Name: "cap", Terms: terms2, Sense: lp.LE, RHS: 5}},
			x:        []float64{1, 1},
			wantCuts: 0,
		},
		{
			name:     "ge row is not a knapsack",
			rows:     []lp.Row{{Name: "cap", Terms: terms2, Sense: lp.GE, RHS: 1}},
			x:        []float64{0.9, 0.9},
			wantCuts: 0,
		},
		{
			name: "negative coefficient row is not a knapsack",
			rows: []lp.Row{{Name: "cap",
				Terms: []lp.Term{{Var: 0, Coef: -1}, {Var: 1, Coef: 2}},
				Sense: lp.LE, RHS: 1}},
			x:        []float64{0.9, 0.9},
			wantCuts: 0,
		},
		{
			name: "violated knapsack separates",
			rows: []lp.Row{{Name: "cap",
				Terms: []lp.Term{{Var: 0, Coef: 2}, {Var: 1, Coef: 2}},
				Sense: lp.LE, RHS: 3}},
			x:        []float64{0.75, 0.75},
			wantCuts: 1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := binModel(t, 2, tc.rows)
			isInt := []bool{true, true}
			o := Options{}.WithDefaults(m.NumVars())
			cuts := SeparateCovers(m.Relax(), isInt, tc.x, &o)
			if len(cuts) != tc.wantCuts {
				t.Fatalf("got %d cuts, want %d: %+v", len(cuts), tc.wantCuts, cuts)
			}
			pts := enumerateFeasible(m)
			for i := range cuts {
				assertCutPreserves(t, 0, &cuts[i], pts)
			}
		})
	}
}

// TestCoverNonBinaryVarsRejected: a row over an integer variable with
// upper bound above 1 (aggregate-mode count shape) must not be treated
// as a 0/1 knapsack.
func TestCoverNonBinaryVarsRejected(t *testing.T) {
	m := lp.NewModel("cover")
	m.AddVar(lp.Variable{Name: "n0", Upper: 3, Cost: -1, Type: lp.Integer})
	m.AddVar(lp.Variable{Name: "x1", Upper: 1, Cost: -1, Type: lp.Binary})
	m.AddRow("cap", []lp.Term{{Var: 0, Coef: 2}, {Var: 1, Coef: 2}}, lp.LE, 3)
	if err := m.Err(); err != nil {
		t.Fatalf("model build: %v", err)
	}
	o := Options{}.WithDefaults(m.NumVars())
	cuts := SeparateCovers(m.Relax(), []bool{true, true}, []float64{0.75, 0.75}, &o)
	if len(cuts) != 0 {
		t.Fatalf("got %d cuts from a non-binary row, want 0: %+v", len(cuts), cuts)
	}
}

// TestSeparateCoverRowExtension: the extension E(C) picks up items at
// least as heavy as the heaviest cover member.
func TestSeparateCoverRowExtension(t *testing.T) {
	items := []coverItem{
		{v: 0, a: 3, x: 0.9},
		{v: 1, a: 3, x: 0.9},
		{v: 2, a: 5, x: 0.0}, // heavier than any cover member: must extend
	}
	cover, extra, ok := separateCoverRow(items, 4)
	if !ok {
		t.Fatal("expected a cover")
	}
	if len(cover) != 2 || cover[0].v != 0 || cover[1].v != 1 {
		t.Fatalf("cover = %+v, want vars 0,1", cover)
	}
	if len(extra) != 1 || extra[0].v != 2 {
		t.Fatalf("extension = %+v, want var 2", extra)
	}
}

// TestGomoryAndCoverCloseKnapsackGap: on min −x0−x1 s.t. 2x0+2x1 ≤ 3
// (binaries) the LP optimum is x = (0.75, 0.75) with bound −1.5 while
// the MILP optimum is −1. Separation must produce cuts whose addition
// moves the LP bound to −1 (the cover x0+x1 ≤ 1 alone achieves it).
func TestGomoryAndCoverCloseKnapsackGap(t *testing.T) {
	m := binModel(t, 2, []lp.Row{{
		Name:  "cap",
		Terms: []lp.Term{{Var: 0, Coef: 2}, {Var: 1, Coef: 2}},
		Sense: lp.LE, RHS: 3,
	}})
	relaxed := m.Relax()
	sx := simplex.NewSolver(&simplex.Options{})
	sol, err := sx.Solve(relaxed)
	if err != nil || sol.Status != lp.StatusOptimal {
		t.Fatalf("relaxation: %v status %v", err, sol.Status)
	}
	if math.Abs(sol.Objective - -1.5) > 1e-9 {
		t.Fatalf("unexpected LP bound %v, want -1.5", sol.Objective)
	}

	isInt := []bool{true, true}
	o := Options{}.WithDefaults(m.NumVars())
	var all []Cut
	if view := sx.TableauView(); view != nil {
		all = append(all, SeparateGomory(relaxed, isInt, view, &o)...)
	}
	all = append(all, SeparateCovers(relaxed, isInt, sol.X, &o)...)
	if len(all) == 0 {
		t.Fatal("no cuts separated at a fractional vertex")
	}
	pts := enumerateFeasible(m)
	for i := range all {
		assertCutPreserves(t, 0, &all[i], pts)
	}

	strengthened := relaxed.Clone()
	for _, c := range all {
		strengthened.AddRow(c.Name, c.Terms, c.Sense, c.RHS)
	}
	if err := strengthened.Err(); err != nil {
		t.Fatalf("adding cuts: %v", err)
	}
	sol2, err := simplex.NewSolver(&simplex.Options{}).Solve(strengthened)
	if err != nil || sol2.Status != lp.StatusOptimal {
		t.Fatalf("strengthened LP: %v status %v", err, sol2.Status)
	}
	if sol2.Objective < -1-1e-6 {
		t.Fatalf("cut bound %v did not reach the MILP optimum -1", sol2.Objective)
	}
	if sol2.Objective > -1+1e-6 {
		t.Fatalf("cut bound %v overshot the MILP optimum -1 (cuts too strong?)", sol2.Objective)
	}
}
