package milp

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"github.com/etransform/etransform/internal/lp"
)

func solveOrFatal(t *testing.T, m *lp.Model, opts *Options) *lp.Solution {
	t.Helper()
	sol, err := Solve(m, opts)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	return sol
}

func TestKnapsack(t *testing.T) {
	// max 10a + 13b + 7c  s.t. 3a + 4b + 2c <= 6, binary.
	// → min with negated costs. Best: a+c = 17 (weight 5); b+c = 20 (weight 6). Optimal 20.
	m := lp.NewModel("knap")
	a := m.AddBinary("a", -10)
	b := m.AddBinary("b", -13)
	c := m.AddBinary("c", -7)
	m.AddRow("w", []lp.Term{{Var: a, Coef: 3}, {Var: b, Coef: 4}, {Var: c, Coef: 2}}, lp.LE, 6)
	sol := solveOrFatal(t, m, nil)
	if sol.Status != lp.StatusOptimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if math.Abs(sol.Objective-(-20)) > 1e-6 {
		t.Errorf("objective = %v, want -20", sol.Objective)
	}
	if sol.Value(b) != 1 || sol.Value(c) != 1 || sol.Value(a) != 0 {
		t.Errorf("point = (%v,%v,%v), want (0,1,1)", sol.Value(a), sol.Value(b), sol.Value(c))
	}
}

// TestNonFiniteGapTolRejected: Solve must refuse a NaN or infinite gap
// tolerance up front (see Options.Validate).
func TestNonFiniteGapTolRejected(t *testing.T) {
	for _, g := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		m := lp.NewModel("gap")
		x := m.AddBinary("x", -1)
		m.AddRow("r", []lp.Term{{Var: x, Coef: 2}}, lp.LE, 1)
		if sol, err := Solve(m, &Options{GapTol: g}); err == nil {
			t.Errorf("GapTol %v: solved (status %v), want an error", g, sol.Status)
		}
	}
}

func TestIntegerVariable(t *testing.T) {
	// min -x  s.t. 2x <= 7, x integer in [0, 10] → x = 3.
	m := lp.NewModel("int")
	x := m.AddVar(lp.Variable{Name: "x", Lower: 0, Upper: 10, Cost: -1, Type: lp.Integer})
	m.AddRow("r", []lp.Term{{Var: x, Coef: 2}}, lp.LE, 7)
	sol := solveOrFatal(t, m, nil)
	if sol.Status != lp.StatusOptimal || sol.Value(x) != 3 {
		t.Fatalf("status %v x=%v, want optimal x=3", sol.Status, sol.Value(x))
	}
}

func TestMixedIntegerContinuous(t *testing.T) {
	// min -y - 0.5x  s.t. y <= 2.5 + 0 (y integer), x <= 3.7 (continuous),
	// x + y <= 5. Optimal: y=2, x=3 → -3.5.
	m := lp.NewModel("mixed")
	x := m.AddContinuous("x", 0, 3.7, -0.5)
	y := m.AddVar(lp.Variable{Name: "y", Lower: 0, Upper: 2.5, Cost: -1, Type: lp.Integer})
	m.AddRow("sum", []lp.Term{{Var: x, Coef: 1}, {Var: y, Coef: 1}}, lp.LE, 5)
	sol := solveOrFatal(t, m, nil)
	if sol.Status != lp.StatusOptimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if sol.Value(y) != 2 || math.Abs(sol.Value(x)-3) > 1e-6 {
		t.Errorf("point = (%v, %v), want (3, 2)", sol.Value(x), sol.Value(y))
	}
}

func TestInfeasibleMILP(t *testing.T) {
	m := lp.NewModel("infeas")
	a := m.AddBinary("a", 1)
	b := m.AddBinary("b", 1)
	m.AddRow("r", []lp.Term{{Var: a, Coef: 1}, {Var: b, Coef: 1}}, lp.GE, 3)
	sol := solveOrFatal(t, m, nil)
	if sol.Status != lp.StatusInfeasible {
		t.Fatalf("status = %v, want infeasible", sol.Status)
	}
}

// TestIntegralityGapInstance: LP relaxation is fractional; MILP must branch.
func TestIntegralityGapInstance(t *testing.T) {
	// min -(5a + 4b + 3c)  s.t. 2a + 3b + c <= 5, 4a + b + 2c <= 11,
	// 3a + 4b + 2c <= 8, binaries. LP relaxation is fractional.
	m := lp.NewModel("gap")
	a := m.AddBinary("a", -5)
	b := m.AddBinary("b", -4)
	c := m.AddBinary("c", -3)
	m.AddRow("r1", []lp.Term{{Var: a, Coef: 2}, {Var: b, Coef: 3}, {Var: c, Coef: 1}}, lp.LE, 5)
	m.AddRow("r2", []lp.Term{{Var: a, Coef: 4}, {Var: b, Coef: 1}, {Var: c, Coef: 2}}, lp.LE, 11)
	m.AddRow("r3", []lp.Term{{Var: a, Coef: 3}, {Var: b, Coef: 4}, {Var: c, Coef: 2}}, lp.LE, 8)
	sol := solveOrFatal(t, m, nil)
	if sol.Status != lp.StatusOptimal {
		t.Fatalf("status = %v", sol.Status)
	}
	// All binaries: a+c feasible (3,6,5): obj -8; a+b: (5,5,7) obj -9; a+b+c: (6,7,9) > r1. So -9.
	if math.Abs(sol.Objective-(-9)) > 1e-6 {
		t.Errorf("objective = %v, want -9", sol.Objective)
	}
}

// bruteForceMILP enumerates all integer assignments (integer vars must be
// boundedly boxed) and optimizes continuous remainder by... this oracle
// only supports pure-integer models for simplicity.
func bruteForceMILP(m *lp.Model) (float64, bool) {
	n := m.NumVars()
	lo := make([]int, n)
	hi := make([]int, n)
	for j := 0; j < n; j++ {
		v := m.Var(lp.VarID(j))
		lo[j] = int(math.Ceil(v.Lower))
		hi[j] = int(math.Floor(v.Upper))
	}
	x := make([]float64, n)
	best := math.Inf(1)
	found := false
	var rec func(j int)
	rec = func(j int) {
		if j == n {
			if m.CheckFeasible(x, 1e-9) == nil {
				if obj := m.Objective(x); obj < best {
					best = obj
					found = true
				}
			}
			return
		}
		for v := lo[j]; v <= hi[j]; v++ {
			x[j] = float64(v)
			rec(j + 1)
		}
	}
	rec(0)
	return best, found
}

// TestAgainstBruteForce cross-checks B&B against exhaustive enumeration
// on random pure-integer programs.
func TestAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	trials := 300
	if testing.Short() {
		trials = 50
	}
	for trial := 0; trial < trials; trial++ {
		m := lp.NewModel("rnd")
		n := 2 + rng.Intn(4)
		for j := 0; j < n; j++ {
			if rng.Intn(2) == 0 {
				m.AddBinary("", float64(rng.Intn(21)-10))
			} else {
				m.AddVar(lp.Variable{
					Lower: 0, Upper: float64(1 + rng.Intn(4)),
					Cost: float64(rng.Intn(21) - 10), Type: lp.Integer,
				})
			}
		}
		rows := 1 + rng.Intn(3)
		for r := 0; r < rows; r++ {
			var terms []lp.Term
			for j := 0; j < n; j++ {
				c := float64(rng.Intn(9) - 4)
				if c != 0 {
					terms = append(terms, lp.Term{Var: lp.VarID(j), Coef: c})
				}
			}
			sense := []lp.Sense{lp.LE, lp.GE, lp.EQ}[rng.Intn(3)]
			m.AddRow("", terms, sense, float64(rng.Intn(13)-4))
		}
		sol, err := Solve(m, nil)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want, feasible := bruteForceMILP(m)
		if !feasible {
			if sol.Status != lp.StatusInfeasible {
				t.Fatalf("trial %d: oracle infeasible, solver %v obj %v", trial, sol.Status, sol.Objective)
			}
			continue
		}
		if sol.Status != lp.StatusOptimal {
			t.Fatalf("trial %d: oracle optimum %v, solver status %v", trial, want, sol.Status)
		}
		if math.Abs(sol.Objective-want) > 1e-5*math.Max(1, math.Abs(want)) {
			t.Fatalf("trial %d: solver %v, oracle %v", trial, sol.Objective, want)
		}
		if err := m.CheckFeasible(sol.X, 1e-6); err != nil {
			t.Fatalf("trial %d: returned point infeasible: %v", trial, err)
		}
	}
}

// TestAssignmentMILP solves a consolidation-shaped assignment with tight
// capacities where the LP relaxation splits groups across DCs.
func TestAssignmentMILP(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	const groups, dcs = 12, 3
	m := lp.NewModel("assign")
	sizes := make([]float64, groups)
	vars := make([][]lp.VarID, groups)
	for i := range vars {
		sizes[i] = float64(1 + rng.Intn(9))
		vars[i] = make([]lp.VarID, dcs)
		for j := 0; j < dcs; j++ {
			vars[i][j] = m.AddBinary("", float64(1+rng.Intn(50))*sizes[i])
		}
		terms := make([]lp.Term, dcs)
		for j := 0; j < dcs; j++ {
			terms[j] = lp.Term{Var: vars[i][j], Coef: 1}
		}
		m.AddRow("", terms, lp.EQ, 1)
	}
	total := 0.0
	for _, s := range sizes {
		total += s
	}
	for j := 0; j < dcs; j++ {
		terms := make([]lp.Term, groups)
		for i := 0; i < groups; i++ {
			terms[i] = lp.Term{Var: vars[i][j], Coef: sizes[i]}
		}
		// Tight capacity: about 40% of total per DC.
		m.AddRow("", terms, lp.LE, math.Ceil(total*0.4))
	}
	sol := solveOrFatal(t, m, nil)
	if sol.Status != lp.StatusOptimal {
		t.Fatalf("status = %v (gap %v, nodes %d)", sol.Status, sol.Gap, sol.Nodes)
	}
	// Every group placed exactly once.
	for i := range vars {
		placed := 0.0
		for j := range vars[i] {
			placed += sol.Value(vars[i][j])
		}
		if placed != 1 {
			t.Errorf("group %d placement sum = %v", i, placed)
		}
	}
}

func TestNodeLimitReturnsIncumbent(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := lp.NewModel("lim")
	var terms []lp.Term
	for j := 0; j < 30; j++ {
		v := m.AddBinary("", -float64(1+rng.Intn(100)))
		terms = append(terms, lp.Term{Var: v, Coef: float64(1 + rng.Intn(10))})
	}
	m.AddRow("w", terms, lp.LE, 40)
	sol, err := Solve(m, &Options{MaxNodes: 2, GapTol: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status == lp.StatusOptimal {
		// With diving it may legitimately prove optimality within 2 nodes;
		// accept but require zero gap.
		if sol.Gap > 1e-9 {
			t.Fatalf("optimal claimed with gap %v", sol.Gap)
		}
		return
	}
	if sol.Status != lp.StatusNodeLimit {
		t.Fatalf("status = %v", sol.Status)
	}
	if sol.X != nil {
		if err := m.CheckFeasible(sol.X, 1e-6); err != nil {
			t.Errorf("incumbent infeasible: %v", err)
		}
		if sol.Gap < 0 {
			t.Errorf("negative gap %v", sol.Gap)
		}
	}
}

func TestTimeLimit(t *testing.T) {
	// A time limit in the past forces immediate halt after the root.
	m := lp.NewModel("tl")
	rng := rand.New(rand.NewSource(11))
	var terms []lp.Term
	for j := 0; j < 25; j++ {
		v := m.AddBinary("", -float64(1+rng.Intn(100)))
		terms = append(terms, lp.Term{Var: v, Coef: float64(1 + rng.Intn(7))})
	}
	m.AddRow("w", terms, lp.LE, 31)
	sol, err := Solve(m, &Options{TimeLimit: time.Nanosecond, GapTol: 1e-12, disableDiving: true})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status == lp.StatusOptimal && sol.Gap > 1e-12 {
		t.Fatalf("optimal claimed with gap %v under expired time limit", sol.Gap)
	}
}

func TestPureLPPassesThrough(t *testing.T) {
	m := lp.NewModel("lp")
	x := m.AddContinuous("x", 0, 4, -1)
	m.AddRow("r", []lp.Term{{Var: x, Coef: 1}}, lp.LE, 2.5)
	sol := solveOrFatal(t, m, nil)
	if sol.Status != lp.StatusOptimal || math.Abs(sol.Objective-(-2.5)) > 1e-9 {
		t.Fatalf("pure LP: %v %v", sol.Status, sol.Objective)
	}
	if sol.Nodes != 1 {
		t.Errorf("nodes = %d, want 1", sol.Nodes)
	}
}

func TestDeterministic(t *testing.T) {
	build := func() *lp.Model {
		rng := rand.New(rand.NewSource(77))
		m := lp.NewModel("det")
		var terms []lp.Term
		for j := 0; j < 20; j++ {
			v := m.AddBinary("", -float64(1+rng.Intn(40)))
			terms = append(terms, lp.Term{Var: v, Coef: float64(1 + rng.Intn(6))})
		}
		m.AddRow("w", terms, lp.LE, 23)
		return m
	}
	// Workers=1 is the deterministic mode: node and iteration counts are
	// only reproducible for a sequential search.
	a, err := Solve(build(), &Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Solve(build(), &Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if a.Objective != b.Objective || a.Nodes != b.Nodes || a.Iterations != b.Iterations {
		t.Errorf("nondeterministic: (%v,%d,%d) vs (%v,%d,%d)",
			a.Objective, a.Nodes, a.Iterations, b.Objective, b.Nodes, b.Iterations)
	}
	for j := range a.X {
		if a.X[j] != b.X[j] {
			t.Errorf("var %d differs: %v vs %v", j, a.X[j], b.X[j])
		}
	}
}
