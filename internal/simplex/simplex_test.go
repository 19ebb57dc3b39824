package simplex

import (
	"math"
	"math/rand"
	"testing"

	"github.com/etransform/etransform/internal/lp"
)

func solveOrFatal(t *testing.T, m *lp.Model) *lp.Solution {
	t.Helper()
	sol, err := Solve(m, nil)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	return sol
}

func TestSolveTinyLP(t *testing.T) {
	// min -x - 2y  s.t. x + y <= 4, x <= 3, y <= 3, x,y >= 0.
	// Optimum: y=3, x=1, obj = -7.
	m := lp.NewModel("tiny")
	x := m.AddContinuous("x", 0, 3, -1)
	y := m.AddContinuous("y", 0, 3, -2)
	m.AddRow("cap", []lp.Term{{Var: x, Coef: 1}, {Var: y, Coef: 1}}, lp.LE, 4)
	sol := solveOrFatal(t, m)
	if sol.Status != lp.StatusOptimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if math.Abs(sol.Objective-(-7)) > 1e-7 {
		t.Errorf("objective = %v, want -7", sol.Objective)
	}
	if math.Abs(sol.Value(x)-1) > 1e-7 || math.Abs(sol.Value(y)-3) > 1e-7 {
		t.Errorf("point = (%v, %v), want (1, 3)", sol.Value(x), sol.Value(y))
	}
}

func TestSolveEqualityAndGE(t *testing.T) {
	// min 2x + 3y  s.t. x + y = 10, y - x >= 2, x,y >= 0.
	// x is cheaper so the GE row binds: y = x+2, x+y = 10 → x=4, y=6, obj 26.
	m := lp.NewModel("eqge")
	x := m.AddContinuous("x", 0, math.Inf(1), 2)
	y := m.AddContinuous("y", 0, math.Inf(1), 3)
	m.AddRow("sum", []lp.Term{{Var: x, Coef: 1}, {Var: y, Coef: 1}}, lp.EQ, 10)
	m.AddRow("diff", []lp.Term{{Var: y, Coef: 1}, {Var: x, Coef: -1}}, lp.GE, 2)
	sol := solveOrFatal(t, m)
	if sol.Status != lp.StatusOptimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if math.Abs(sol.Objective-26) > 1e-6 {
		t.Errorf("objective = %v, want 26", sol.Objective)
	}
	matchesExact(t, "eqge", m, sol)
}

func TestSolveInfeasible(t *testing.T) {
	m := lp.NewModel("infeas")
	x := m.AddContinuous("x", 0, 5, 1)
	m.AddRow("lo", []lp.Term{{Var: x, Coef: 1}}, lp.GE, 10)
	sol := solveOrFatal(t, m)
	if sol.Status != lp.StatusInfeasible {
		t.Fatalf("status = %v, want infeasible", sol.Status)
	}
}

func TestSolveInfeasibleEquality(t *testing.T) {
	m := lp.NewModel("infeas-eq")
	x := m.AddContinuous("x", 0, 1, 0)
	y := m.AddContinuous("y", 0, 1, 0)
	m.AddRow("a", []lp.Term{{Var: x, Coef: 1}, {Var: y, Coef: 1}}, lp.EQ, 3)
	sol := solveOrFatal(t, m)
	if sol.Status != lp.StatusInfeasible {
		t.Fatalf("status = %v, want infeasible", sol.Status)
	}
}

func TestSolveUnbounded(t *testing.T) {
	m := lp.NewModel("unb")
	x := m.AddContinuous("x", 0, math.Inf(1), -1)
	y := m.AddContinuous("y", 0, math.Inf(1), 0)
	m.AddRow("r", []lp.Term{{Var: x, Coef: 1}, {Var: y, Coef: -1}}, lp.LE, 5)
	sol := solveOrFatal(t, m)
	if sol.Status != lp.StatusUnbounded {
		t.Fatalf("status = %v, want unbounded", sol.Status)
	}
	matchesExact(t, "unbounded", m, sol)
}

func TestSolveFreeVariable(t *testing.T) {
	// min x  with x free, x >= -7 via row.
	m := lp.NewModel("free")
	x := m.AddContinuous("x", math.Inf(-1), math.Inf(1), 1)
	m.AddRow("lo", []lp.Term{{Var: x, Coef: 1}}, lp.GE, -7)
	sol := solveOrFatal(t, m)
	if sol.Status != lp.StatusOptimal || math.Abs(sol.Objective-(-7)) > 1e-7 {
		t.Fatalf("status %v obj %v, want optimal -7", sol.Status, sol.Objective)
	}
	matchesExact(t, "free", m, sol)
}

func TestSolveUpperBoundOnly(t *testing.T) {
	// min x + y  with x ≤ 4, y ≤ 3 and no lower bounds, x + 2y >= -6,
	// 2x + y >= -6. Both start at their upper bounds; summing the rows
	// gives x + y >= -4, reached at x = y = -2.
	m := lp.NewModel("upper")
	x := m.AddContinuous("x", math.Inf(-1), 4, 1)
	y := m.AddContinuous("y", math.Inf(-1), 3, 1)
	m.AddRow("a", []lp.Term{{Var: x, Coef: 1}, {Var: y, Coef: 2}}, lp.GE, -6)
	m.AddRow("b", []lp.Term{{Var: x, Coef: 2}, {Var: y, Coef: 1}}, lp.GE, -6)
	sol := solveOrFatal(t, m)
	if sol.Status != lp.StatusOptimal || math.Abs(sol.Objective-(-4)) > 1e-7 {
		t.Fatalf("status %v obj %v, want optimal -4", sol.Status, sol.Objective)
	}
	matchesExact(t, "upper", m, sol)
}

func TestSolveNegativeLowerBounds(t *testing.T) {
	// min x + y  with x ∈ [-3, 3], y ∈ [-2, 2], x + y >= -4.
	// Optimum x=-3, y=-1 or x=-2,y=-2: obj -4 (constraint binds).
	m := lp.NewModel("neg")
	x := m.AddContinuous("x", -3, 3, 1)
	y := m.AddContinuous("y", -2, 2, 1)
	m.AddRow("r", []lp.Term{{Var: x, Coef: 1}, {Var: y, Coef: 1}}, lp.GE, -4)
	sol := solveOrFatal(t, m)
	if sol.Status != lp.StatusOptimal || math.Abs(sol.Objective-(-4)) > 1e-7 {
		t.Fatalf("status %v obj %v, want optimal -4", sol.Status, sol.Objective)
	}
}

func TestSolveNoVariables(t *testing.T) {
	m := lp.NewModel("empty")
	sol := solveOrFatal(t, m)
	if sol.Status != lp.StatusOptimal || sol.Objective != 0 {
		t.Fatalf("empty model: %v %v", sol.Status, sol.Objective)
	}
}

func TestSolveAssignmentLPIsIntegral(t *testing.T) {
	// 3 groups × 2 DCs transportation structure: LP relaxation of an
	// assignment problem with non-degenerate costs lands on a vertex with
	// integral values.
	m := lp.NewModel("assign")
	costs := [][]float64{{5, 9}, {7, 3}, {4, 6}}
	sizes := []float64{2, 3, 1}
	vars := make([][]lp.VarID, 3)
	for i := range vars {
		vars[i] = make([]lp.VarID, 2)
		for j := 0; j < 2; j++ {
			vars[i][j] = m.AddContinuous("", 0, 1, costs[i][j])
		}
		m.AddRow("", []lp.Term{{Var: vars[i][0], Coef: 1}, {Var: vars[i][1], Coef: 1}}, lp.EQ, 1)
	}
	for j := 0; j < 2; j++ {
		terms := make([]lp.Term, 3)
		for i := 0; i < 3; i++ {
			terms[i] = lp.Term{Var: vars[i][j], Coef: sizes[i]}
		}
		m.AddRow("", terms, lp.LE, 4)
	}
	sol := solveOrFatal(t, m)
	if sol.Status != lp.StatusOptimal {
		t.Fatalf("status %v", sol.Status)
	}
	// Optimal: g0→dc0 (5), g1→dc1 (3), g2→dc0 (4) = 12, capacities 3 ≤ 4 and 3 ≤ 4.
	if math.Abs(sol.Objective-12) > 1e-6 {
		t.Errorf("objective = %v, want 12", sol.Objective)
	}
	for i := range vars {
		for j := range vars[i] {
			v := sol.Value(vars[i][j])
			if math.Abs(v-math.Round(v)) > 1e-6 {
				t.Errorf("fractional assignment x[%d][%d] = %v", i, j, v)
			}
		}
	}
}

// verifyOptimalityCertificate checks strong duality: the primal point is
// feasible, the duals are sign-consistent with row senses, and the primal
// and dual objectives agree. Together these certify optimality
// independently of the solver's own claims.
func verifyOptimalityCertificate(t *testing.T, m *lp.Model, sol *lp.Solution) {
	t.Helper()
	const tol = 1e-5
	if err := m.CheckFeasible(sol.X, tol); err != nil {
		t.Fatalf("returned point infeasible: %v", err)
	}
	y := sol.DualValues
	if len(y) != m.NumRows() {
		t.Fatalf("duals length %d, want %d", len(y), m.NumRows())
	}
	// Reduced costs.
	d := make([]float64, m.NumVars())
	for j := 0; j < m.NumVars(); j++ {
		d[j] = m.Var(lp.VarID(j)).Cost
	}
	for r := 0; r < m.NumRows(); r++ {
		row := m.Row(lp.RowID(r))
		for _, term := range row.Terms {
			d[term.Var] -= y[r] * term.Coef
		}
		// Dual sign consistency.
		switch row.Sense {
		case lp.LE:
			if y[r] > tol {
				t.Errorf("row %d (LE) has dual %v > 0", r, y[r])
			}
		case lp.GE:
			if y[r] < -tol {
				t.Errorf("row %d (GE) has dual %v < 0", r, y[r])
			}
		}
	}
	// Dual objective: y'b + Σ_j d_j⁺·l_j + d_j⁻·u_j over finite bounds.
	dualObj := 0.0
	for r := 0; r < m.NumRows(); r++ {
		dualObj += y[r] * m.Row(lp.RowID(r)).RHS
	}
	for j := 0; j < m.NumVars(); j++ {
		v := m.Var(lp.VarID(j))
		scale := math.Max(1, math.Abs(v.Cost))
		switch {
		case d[j] > tol*scale:
			if math.IsInf(v.Lower, -1) {
				t.Errorf("var %d: positive reduced cost %v with infinite lower bound", j, d[j])
				continue
			}
			dualObj += d[j] * v.Lower
		case d[j] < -tol*scale:
			if math.IsInf(v.Upper, 1) {
				t.Errorf("var %d: negative reduced cost %v with infinite upper bound", j, d[j])
				continue
			}
			dualObj += d[j] * v.Upper
		}
	}
	scale := math.Max(1, math.Abs(sol.Objective))
	if math.Abs(dualObj-sol.Objective) > 1e-4*scale {
		t.Errorf("duality gap: primal %v vs dual %v", sol.Objective, dualObj)
	}
}

// --- Brute-force oracle -------------------------------------------------

// bruteForceLP enumerates all basic points of a model whose variables are
// all box-bounded: every choice of n active constraints among {rows as
// equalities} ∪ {x_j = l_j} ∪ {x_j = u_j}, solved exactly, filtered for
// feasibility. For a bounded nonempty polytope the LP optimum is attained
// at such a point. Returns (bestObj, found).
type bruteCons struct {
	coefs []float64
	rhs   float64
}

func bruteForceLP(m *lp.Model, tol float64) (float64, bool) {
	n := m.NumVars()
	var all []bruteCons
	for r := 0; r < m.NumRows(); r++ {
		row := m.Row(lp.RowID(r))
		c := make([]float64, n)
		for _, term := range row.Terms {
			c[term.Var] = term.Coef
		}
		all = append(all, bruteCons{c, row.RHS})
	}
	for j := 0; j < n; j++ {
		v := m.Var(lp.VarID(j))
		lo := make([]float64, n)
		lo[j] = 1
		all = append(all, bruteCons{lo, v.Lower})
		hi := make([]float64, n)
		hi[j] = 1
		all = append(all, bruteCons{hi, v.Upper})
	}
	best := math.Inf(1)
	found := false
	idx := make([]int, n)
	var rec func(start, k int)
	rec = func(start, k int) {
		if k == n {
			x, ok := solveSquare(all, idx, n)
			if !ok {
				return
			}
			if m.CheckFeasible(x, tol) != nil {
				return
			}
			if obj := m.Objective(x); obj < best {
				best = obj
				found = true
			}
			return
		}
		for i := start; i < len(all); i++ {
			idx[k] = i
			rec(i+1, k+1)
		}
	}
	rec(0, 0)
	return best, found
}

// solveSquare solves the n×n system given by the selected constraints via
// Gaussian elimination; returns ok=false for singular systems.
func solveSquare(all []bruteCons, idx []int, n int) ([]float64, bool) {
	a := make([][]float64, n)
	for i, ci := range idx {
		a[i] = make([]float64, n+1)
		copy(a[i], all[ci].coefs)
		a[i][n] = all[ci].rhs
	}
	for col := 0; col < n; col++ {
		p := -1
		best := 1e-9
		for r := col; r < n; r++ {
			if v := math.Abs(a[r][col]); v > best {
				best, p = v, r
			}
		}
		if p < 0 {
			return nil, false
		}
		a[col], a[p] = a[p], a[col]
		piv := a[col][col]
		for k := col; k <= n; k++ {
			a[col][k] /= piv
		}
		for r := 0; r < n; r++ {
			if r == col || a[r][col] == 0 {
				continue
			}
			f := a[r][col]
			for k := col; k <= n; k++ {
				a[r][k] -= f * a[col][k]
			}
		}
	}
	x := make([]float64, n)
	for i := 0; i < n; i++ {
		x[i] = a[i][n]
	}
	return x, true
}

// randomBoxLP builds a random LP with box-bounded variables (so it is
// never unbounded) and small integer-ish data.
func randomBoxLP(rng *rand.Rand) *lp.Model {
	m := lp.NewModel("randbox")
	n := 2 + rng.Intn(3)
	for j := 0; j < n; j++ {
		lo := float64(rng.Intn(3)) - 1
		hi := lo + float64(1+rng.Intn(6))
		cost := float64(rng.Intn(21) - 10)
		m.AddContinuous("", lo, hi, cost)
	}
	rows := 1 + rng.Intn(3)
	for r := 0; r < rows; r++ {
		var terms []lp.Term
		for j := 0; j < n; j++ {
			c := float64(rng.Intn(7) - 3)
			if c != 0 {
				terms = append(terms, lp.Term{Var: lp.VarID(j), Coef: c})
			}
		}
		sense := []lp.Sense{lp.LE, lp.GE, lp.EQ}[rng.Intn(3)]
		rhs := float64(rng.Intn(15) - 5)
		m.AddRow("", terms, sense, rhs)
	}
	return m
}

// TestSolveAgainstBruteForce cross-checks the simplex against exhaustive
// basic-point enumeration on hundreds of random box-bounded LPs.
func TestSolveAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	trials := 400
	if testing.Short() {
		trials = 60
	}
	for trial := 0; trial < trials; trial++ {
		m := randomBoxLP(rng)
		sol, err := Solve(m, nil)
		if err != nil {
			t.Fatalf("trial %d: Solve: %v", trial, err)
		}
		want, feasible := bruteForceLP(m, 1e-7)
		if !feasible {
			if sol.Status != lp.StatusInfeasible {
				t.Fatalf("trial %d: oracle says infeasible, simplex says %v (obj %v)", trial, sol.Status, sol.Objective)
			}
			continue
		}
		if sol.Status != lp.StatusOptimal {
			t.Fatalf("trial %d: oracle optimum %v but simplex status %v", trial, want, sol.Status)
		}
		scale := math.Max(1, math.Abs(want))
		if math.Abs(sol.Objective-want) > 1e-5*scale {
			t.Fatalf("trial %d: simplex obj %v, oracle %v", trial, sol.Objective, want)
		}
		verifyOptimalityCertificate(t, m, sol)
	}
}

// TestSolveDegenerateDoesNotCycle builds a classically degenerate LP
// (many redundant constraints through the origin) and checks termination.
func TestSolveDegenerateDoesNotCycle(t *testing.T) {
	m := lp.NewModel("degen")
	x := m.AddContinuous("x", 0, math.Inf(1), -0.75)
	y := m.AddContinuous("y", 0, math.Inf(1), 150)
	z := m.AddContinuous("z", 0, math.Inf(1), -0.02)
	w := m.AddContinuous("w", 0, math.Inf(1), 6)
	// Beale's cycling example (objective signs arranged for minimization).
	m.AddRow("r1", []lp.Term{{Var: x, Coef: 0.25}, {Var: y, Coef: -60}, {Var: z, Coef: -0.04}, {Var: w, Coef: 9}}, lp.LE, 0)
	m.AddRow("r2", []lp.Term{{Var: x, Coef: 0.5}, {Var: y, Coef: -90}, {Var: z, Coef: -0.02}, {Var: w, Coef: 3}}, lp.LE, 0)
	m.AddRow("r3", []lp.Term{{Var: z, Coef: 1}}, lp.LE, 1)
	sol := solveOrFatal(t, m)
	if sol.Status != lp.StatusOptimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if math.Abs(sol.Objective-(-0.05)) > 1e-6 {
		t.Errorf("objective = %v, want -0.05", sol.Objective)
	}
}

func TestSolveBlandForced(t *testing.T) {
	m := lp.NewModel("bland")
	x := m.AddContinuous("x", 0, 3, -1)
	y := m.AddContinuous("y", 0, 3, -2)
	m.AddRow("cap", []lp.Term{{Var: x, Coef: 1}, {Var: y, Coef: 1}}, lp.LE, 4)
	sol, err := Solve(m, &Options{Bland: true})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != lp.StatusOptimal || math.Abs(sol.Objective-(-7)) > 1e-7 {
		t.Fatalf("bland solve: %v obj %v", sol.Status, sol.Objective)
	}
}

func TestSolveIterLimit(t *testing.T) {
	m := lp.NewModel("limit")
	var terms []lp.Term
	for j := 0; j < 20; j++ {
		v := m.AddContinuous("", 0, 10, -1)
		terms = append(terms, lp.Term{Var: v, Coef: 1})
	}
	m.AddRow("cap", terms, lp.LE, 50)
	sol, err := Solve(m, &Options{maxIters: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != lp.StatusIterLimit {
		t.Fatalf("status = %v, want iteration-limit", sol.Status)
	}
}

// TestLimitPairSimplexIterations: a solve stopped by its iteration cap
// reports the (StatusIterLimit, LimitIterations) pair, one lp.ValidLimit
// accepts. The model is the relaxation of a 30-item knapsack.
func TestLimitPairSimplexIterations(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := lp.NewModel("pairs")
	var terms []lp.Term
	for j := 0; j < 30; j++ {
		v := m.AddContinuous("", 0, 1, -float64(1+rng.Intn(100)))
		terms = append(terms, lp.Term{Var: v, Coef: float64(1 + rng.Intn(10))})
	}
	m.AddRow("w", terms, lp.LE, 40)
	sol, err := Solve(m, &Options{maxIters: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != lp.StatusIterLimit || sol.Limit != lp.LimitIterations || !lp.ValidLimit(sol.Status, sol.Limit) {
		t.Fatalf("got (%v, %q), want (%v, %q)", sol.Status, sol.Limit, lp.StatusIterLimit, lp.LimitIterations)
	}
}

// TestSolveMediumAssignment exercises a mid-size consolidation-shaped LP:
// 40 groups × 8 DCs with capacities, checking the certificate.
func TestSolveMediumAssignment(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := lp.NewModel("medium")
	const groups, dcs = 40, 8
	vars := make([][]lp.VarID, groups)
	sizes := make([]float64, groups)
	for i := range vars {
		sizes[i] = float64(1 + rng.Intn(20))
		vars[i] = make([]lp.VarID, dcs)
		for j := 0; j < dcs; j++ {
			vars[i][j] = m.AddContinuous("", 0, 1, float64(10+rng.Intn(90))*sizes[i])
		}
		terms := make([]lp.Term, dcs)
		for j := 0; j < dcs; j++ {
			terms[j] = lp.Term{Var: vars[i][j], Coef: 1}
		}
		m.AddRow("", terms, lp.EQ, 1)
	}
	for j := 0; j < dcs; j++ {
		terms := make([]lp.Term, groups)
		for i := 0; i < groups; i++ {
			terms[i] = lp.Term{Var: vars[i][j], Coef: sizes[i]}
		}
		m.AddRow("", terms, lp.LE, 80)
	}
	sol := solveOrFatal(t, m)
	if sol.Status != lp.StatusOptimal {
		t.Fatalf("status = %v after %d iters", sol.Status, sol.Iterations)
	}
	verifyOptimalityCertificate(t, m, sol)
}
