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

// installs reports whether basis installs on model: the shape and
// status checks and the refactorization SolveFrom runs first.
func installs(model *lp.Model, basis *Basis) bool {
	var tb tableau
	if err := tb.reset(model, &Options{}); err != nil {
		return false
	}
	return tb.installBasis(basis)
}

// TestWarmSolveFromMatchesCold solves random parent LPs cold, branches
// a bound, and checks that the warm-started child solve agrees with an
// independent cold solve of the same child on status and objective.
// Every child whose parent basis installs must be a warm hit: dual
// restoration either reaches primal feasibility or proves the child
// infeasible, and never gives up to phase 1.
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
		if miss == 1 && installs(child, basis) {
			t.Fatalf("trial %d: the parent basis installs but restoration gave up (status %v)", trial, got.Status)
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
// rejected and the solve must fall back to the slack start, counted as a
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

// TestWarmInfeasibleChild: when the branched child is LP-infeasible,
// restoration finds no eligible column for the violated row, and that
// row of B⁻¹ is a Farkas certificate: the warm path itself must return
// the infeasibility verdict, as a hit, without phase 1.
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

	met := obs.NewMetrics()
	sol, err := NewSolver(&Options{Metrics: met}).SolveFrom(context.Background(), child, basis)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != lp.StatusInfeasible {
		t.Fatalf("child status = %v, want infeasible", sol.Status)
	}
	if met.Counter(obs.MetricSimplexWarmHits) != 1 || met.Counter(obs.MetricSimplexWarmMisses) != 0 {
		t.Fatalf("warm_hits = %d, warm_misses = %d, want 1/0: the warm path must prove infeasibility",
			met.Counter(obs.MetricSimplexWarmHits), met.Counter(obs.MetricSimplexWarmMisses))
	}
	if met.Counter(obs.MetricSimplexPhase1) != 0 {
		t.Fatal("phase-1 pivots recorded: the verdict came from phase 1")
	}
}

// TestWarmRestoreNoFlipCycle is a hand-built child on which a dual
// restoration that bound-flips its entering column cycles: x ∈ [0, 1]
// is the min-ratio column of both violated rows, its range is shorter
// than either row's step, and flipping it to its upper bound (no dual
// step) makes row 2 the most violated, whose ratio test flips it back.
//
//	min x + 10z + 10w  s.t.  y1 − x − z = 0,  y2 + 2x − w = 0,
//	x ∈ [0, 1],  z, w ≥ 0,  parent y1, y2 ∈ [0, 10],  child y1 ≥ 3, y2 ≥ 1
//
// The parent basis {y1, y2} is optimal (all duals zero). Pivoting x in
// past its upper bound instead keeps the basis dual feasible, and the
// restoration reaches the child optimum 40 (x = 0, z = 3, w = 1) in a
// few pivots on the warm path.
func TestWarmRestoreNoFlipCycle(t *testing.T) {
	m := lp.NewModel("flip-cycle")
	x := m.AddContinuous("x", 0, 1, 1)
	z := m.AddContinuous("z", 0, math.Inf(1), 10)
	w := m.AddContinuous("w", 0, math.Inf(1), 10)
	y1 := m.AddContinuous("y1", 0, 10, 0)
	y2 := m.AddContinuous("y2", 0, 10, 0)
	m.AddRow("r1", []lp.Term{{Var: y1, Coef: 1}, {Var: x, Coef: -1}, {Var: z, Coef: -1}}, lp.EQ, 0)
	m.AddRow("r2", []lp.Term{{Var: y2, Coef: 1}, {Var: x, Coef: 2}, {Var: w, Coef: -1}}, lp.EQ, 0)
	// Columns x, z, w, y1, y2, then the two (fixed) slacks.
	parent := &Basis{
		n: 5, m: 2,
		status:  []varStatus{atLower, atLower, atLower, basic, basic, atLower, atLower},
		basicIn: []int32{3, 4},
	}
	if sol, err := NewSolver(nil).SolveFrom(context.Background(), m, parent); err != nil ||
		sol.Status != lp.StatusOptimal || sol.Iterations != 0 {
		t.Fatalf("parent basis is not optimal for the parent: %v, %+v", err, sol)
	}

	child := m.Clone()
	child.SetBounds(y1, 3, 10)
	child.SetBounds(y2, 1, 10)
	met := obs.NewMetrics()
	got, err := NewSolver(&Options{Metrics: met}).SolveFrom(context.Background(), child, parent)
	if err != nil {
		t.Fatal(err)
	}
	if met.Counter(obs.MetricSimplexWarmHits) != 1 {
		t.Fatalf("warm_hits = %d, warm_misses = %d: restoration gave up",
			met.Counter(obs.MetricSimplexWarmHits), met.Counter(obs.MetricSimplexWarmMisses))
	}
	if got.Iterations > 6 {
		t.Fatalf("warm solve took %d pivots, want a few", got.Iterations)
	}
	matchesExact(t, "flip-cycle child", child, got)
}

// TestWarmInfeasibleChildrenMatchExact branches random parents into
// children, about two in five of them infeasible, and checks the warm
// path's infeasibility verdicts against exactLP. Every row of B⁻¹ under the
// child's bounds that provesInfeasible accepts must come from a child
// exactLP finds infeasible — a certificate test that loses the slack
// columns' ranges or compares against the wrong end of the range
// accepts rows of feasible children — and every infeasible child must
// be proved on the warm path, as a hit.
func TestWarmInfeasibleChildrenMatchExact(t *testing.T) {
	rng := rand.New(rand.NewSource(5150))
	infeasible, proofs := 0, 0
	for trial := 0; trial < 1000; trial++ {
		var parent *lp.Model
		if trial%2 == 0 {
			parent = randomLP(rng, 2+rng.Intn(8), 1+rng.Intn(5))
		} else {
			parent = randomBoxLP(rng)
		}
		s := NewSolver(nil)
		psol, err := s.Solve(parent)
		if err != nil {
			t.Fatalf("trial %d: parent solve: %v", trial, err)
		}
		if psol.Status != lp.StatusOptimal {
			continue
		}
		basis := s.Basis()
		if basis == nil {
			continue
		}
		// Fix one to three variables at an end of their range, which
		// often leaves the child infeasible.
		child := parent.Clone()
		for k := 1 + rng.Intn(3); k > 0; k-- {
			j := lp.VarID(rng.Intn(child.NumVars()))
			v := child.Var(j)
			if rng.Intn(2) == 0 {
				child.SetBounds(j, v.Upper, v.Upper)
			} else {
				child.SetBounds(j, v.Lower, v.Lower)
			}
		}
		want, _ := exactLP(child)

		var tb tableau
		if err := tb.reset(child, &Options{}); err != nil {
			t.Fatalf("trial %d: reset: %v", trial, err)
		}
		if !tb.installBasis(basis) {
			t.Fatalf("trial %d: the parent basis does not install on its child", trial)
		}
		for r := 0; r < tb.m; r++ {
			if tb.provesInfeasible(tb.binvRow(r)) {
				if want != lp.StatusInfeasible {
					t.Fatalf("trial %d: row %d of B⁻¹ certifies infeasibility, exact status %v", trial, r, want)
				}
				proofs++
			}
		}

		met := obs.NewMetrics()
		got, err := NewSolver(&Options{Metrics: met}).SolveFrom(context.Background(), child, basis)
		if err != nil {
			t.Fatalf("trial %d: warm solve: %v", trial, err)
		}
		matchesExact(t, "warm child", child, got)
		if want == lp.StatusInfeasible {
			infeasible++
			if met.Counter(obs.MetricSimplexWarmHits) != 1 {
				t.Fatalf("trial %d: infeasible child went to phase 1 instead of a warm proof", trial)
			}
		}
	}
	if infeasible < 150 || proofs < 150 {
		t.Fatalf("only %d infeasible children and %d certifying rows: family too easy", infeasible, proofs)
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

// TestColdSolveStartsDual: an LP with nonnegative costs and finite
// lower bounds has a dual feasible all-slack basis, so a cold solve
// starts there and restores primal feasibility by dual simplex: no
// phase-1 pivot, neither a warm hit nor a miss, and the answer of
// exactLP, infeasible verdicts included.
func TestColdSolveStartsDual(t *testing.T) {
	rng := rand.New(rand.NewSource(6061))
	restored, infeasible := 0, 0
	for trial := 0; trial < 300; trial++ {
		m := randomLP(rng, 1+rng.Intn(10), 1+rng.Intn(8))
		for j := 0; j < m.NumVars(); j++ {
			m.SetCost(lp.VarID(j), math.Abs(m.Var(lp.VarID(j)).Cost))
		}
		met := obs.NewMetrics()
		sol, err := Solve(m, &Options{Metrics: met})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		matchesExact(t, "slack start", m, sol)
		if p1 := met.Counter(obs.MetricSimplexPhase1); p1 != 0 {
			t.Fatalf("trial %d: %d phase-1 pivots: the solve did not start dual", trial, p1)
		}
		if h, miss := met.Counter(obs.MetricSimplexWarmHits), met.Counter(obs.MetricSimplexWarmMisses); h+miss != 0 {
			t.Fatalf("trial %d: warm_hits %d, warm_misses %d on a cold solve", trial, h, miss)
		}
		if met.Counter(obs.MetricSimplexPivots) != int64(sol.Iterations) {
			t.Fatalf("trial %d: folded pivots %d != solution iterations %d",
				trial, met.Counter(obs.MetricSimplexPivots), sol.Iterations)
		}
		if met.Counter(obs.MetricSimplexDualPivots) > 0 {
			restored++
		}
		if sol.Status == lp.StatusInfeasible {
			infeasible++
		}
	}
	if restored < 200 || infeasible < 100 {
		t.Fatalf("%d solves took dual pivots and %d were infeasible: family too easy", restored, infeasible)
	}
}

// noDualSlackLP returns an LP of randomLP's family with one column j
// whose cost sign has no finite bound to rest at: a negative cost
// unbounded above when negUnbounded is set, else a free column with a
// nonzero cost. Its slack basis is dual infeasible, so a cold solve
// skips dual restoration and starts phase 1 from that basis whenever a
// slack lies outside its bounds.
func noDualSlackLP(rng *rand.Rand, negUnbounded bool) (m *lp.Model, j lp.VarID) {
	m = randomLP(rng, 1+rng.Intn(10), 1+rng.Intn(8))
	j = lp.VarID(rng.Intn(m.NumVars()))
	cost := float64(1 + rng.Intn(10))
	if negUnbounded {
		m.SetBounds(j, 0, math.Inf(1))
		m.SetCost(j, -cost)
	} else {
		m.SetBounds(j, math.Inf(-1), math.Inf(1))
		m.SetCost(j, cost*float64(2*rng.Intn(2)-1))
	}
	return m, j
}

// TestColdSolveWithoutDualSlackBasis: on noDualSlackLP's family the
// cold solve installs the slack basis, takes no dual pivot, and phase 1
// repairs the slacks outside their bounds, matching exactLP. With no
// restoration to prove it, every infeasible verdict is phase 1's; the
// floor counts those reached after at least one phase-1 pivot.
func TestColdSolveWithoutDualSlackBasis(t *testing.T) {
	rng := rand.New(rand.NewSource(6062))
	phase1, infeasible := 0, 0
	for trial := 0; trial < 300; trial++ {
		m, j := noDualSlackLP(rng, trial%2 == 0)
		var tb tableau
		if err := tb.reset(m, &Options{}); err != nil {
			t.Fatalf("trial %d: reset: %v", trial, err)
		}
		if _, dual := tb.slackBasis(); dual {
			t.Fatalf("trial %d: column %d (cost %v) has no bound to rest at, yet the slack basis is dual feasible",
				trial, j, m.Var(j).Cost)
		}
		met := obs.NewMetrics()
		sol, err := Solve(m, &Options{Metrics: met})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		matchesExact(t, "slack start without dual feasibility", m, sol)
		if d := met.Counter(obs.MetricSimplexDualPivots); d != 0 {
			t.Fatalf("trial %d: %d dual pivots from a dual infeasible slack basis", trial, d)
		}
		if met.Counter(obs.MetricSimplexPivots) != int64(sol.Iterations) {
			t.Fatalf("trial %d: folded pivots %d != solution iterations %d",
				trial, met.Counter(obs.MetricSimplexPivots), sol.Iterations)
		}
		if met.Counter(obs.MetricSimplexPhase1) > 0 {
			phase1++
			if sol.Status == lp.StatusInfeasible {
				infeasible++
			}
		}
	}
	if phase1 < 250 || infeasible < 100 {
		t.Fatalf("%d solves ran phase 1 and %d ended infeasible there: family too easy", phase1, infeasible)
	}
}

// TestPhase1PricesBland: Options.Bland prices from the first pivot,
// phase 1 included. Bland's lowest-index rule and devex choose
// different entering columns on noDualSlackLP's family, so phase 1
// must take a different number of pivots under the two on a good share
// of the solves where it runs; a phase 1 that ignored the option would
// pivot identically under both, every time.
func TestPhase1PricesBland(t *testing.T) {
	rng := rand.New(rand.NewSource(6062))
	ran, differ := 0, 0
	for trial := 0; trial < 300; trial++ {
		m, _ := noDualSlackLP(rng, trial%2 == 0)
		var p1 [2]int64
		for k, bland := range []bool{false, true} {
			met := obs.NewMetrics()
			sol, err := Solve(m, &Options{Bland: bland, Metrics: met})
			if err != nil {
				t.Fatalf("trial %d (Bland %v): %v", trial, bland, err)
			}
			matchesExact(t, "phase 1", m, sol)
			p1[k] = met.Counter(obs.MetricSimplexPhase1)
		}
		if p1[0] > 0 {
			ran++
		}
		if p1[0] != p1[1] {
			differ++
		}
	}
	if ran < 250 || differ < 100 {
		t.Fatalf("phase 1 ran in %d solves and took a different pivot count under Bland in %d", ran, differ)
	}
}

// degenerateCoverLP is min 0 s.t. x_i + y_i ≥ 1 for k rows, with x_i ∈
// [xLo, 1] and y_i ∈ [0, 1]. Every cost is zero, so every dual ratio is
// zero, and at xLo = 0 each row takes one dual-degenerate pivot.
func degenerateCoverLP(k int, xLo float64) *lp.Model {
	m := lp.NewModel("degenerate-cover")
	for i := 0; i < k; i++ {
		x := m.AddContinuous("", xLo, 1, 0)
		y := m.AddContinuous("", 0, 1, 0)
		m.AddRow("", []lp.Term{{Var: x, Coef: 1}, {Var: y, Coef: 1}}, lp.GE, 1)
	}
	return m
}

// TestDualDegenerateGuard: more than stallLimit consecutive
// dual-degenerate pivots make a dual start, slack or inherited, give up
// to phase 1, which repairs the rows restoration left violated from the
// basis it ended on. degenerateCoverLP with stallLimit rows restores
// dual; one row more trips the guard on its last pivot, and the stallLimit
// restoration pivots it took stay counted.
func TestDualDegenerateGuard(t *testing.T) {
	under := degenerateCoverLP(stallLimit, 0)
	met := obs.NewMetrics()
	sol, err := Solve(under, &Options{Metrics: met})
	if err != nil {
		t.Fatal(err)
	}
	matchesExact(t, "under the guard", under, sol)
	if met.Counter(obs.MetricSimplexPhase1) != 0 || met.Counter(obs.MetricSimplexDualPivots) != stallLimit {
		t.Fatalf("%d rows: %d dual and %d phase-1 pivots, want %d dual and none in phase 1", stallLimit,
			met.Counter(obs.MetricSimplexDualPivots), met.Counter(obs.MetricSimplexPhase1), stallLimit)
	}

	over := degenerateCoverLP(stallLimit+1, 0)
	var tb tableau
	if err := tb.reset(over, &Options{}); err != nil {
		t.Fatal(err)
	}
	if slack, _ := tb.slackBasis(); !tb.installBasis(slack) {
		t.Fatal("the slack basis does not install")
	}
	if out, err := tb.dualRestore(); err != nil || out != restoreStale || tb.degenRun != stallLimit+1 {
		t.Fatalf("restoration ended %v (err %v) after a dual-degenerate run of %d, want the guard at %d",
			out, err, tb.degenRun, stallLimit+1)
	}
	met = obs.NewMetrics()
	sol, err = Solve(over, &Options{Metrics: met})
	if err != nil {
		t.Fatal(err)
	}
	matchesExact(t, "slack start over the guard", over, sol)
	if met.Counter(obs.MetricSimplexPhase1) == 0 || met.Counter(obs.MetricSimplexDualPivots) != stallLimit {
		t.Fatalf("%d rows: %d dual and %d phase-1 pivots, want %d dual, then phase 1", stallLimit+1,
			met.Counter(obs.MetricSimplexDualPivots), met.Counter(obs.MetricSimplexPhase1), stallLimit)
	}
	if met.Counter(obs.MetricSimplexPivots) != int64(sol.Iterations) {
		t.Fatalf("folded pivots %d != solution iterations %d", met.Counter(obs.MetricSimplexPivots), sol.Iterations)
	}

	// The inherited case: the parent fixes every x_i at 1, where the
	// slack basis is optimal; the child frees x_i down to 0, and each
	// row then takes a dual-degenerate pivot.
	s := NewSolver(nil)
	if psol, err := s.Solve(degenerateCoverLP(stallLimit+1, 1)); err != nil || psol.Status != lp.StatusOptimal {
		t.Fatalf("parent: %v, %v", psol, err)
	}
	met = obs.NewMetrics()
	sol, err = NewSolver(&Options{Metrics: met}).SolveFrom(context.Background(), over, s.Basis())
	if err != nil {
		t.Fatal(err)
	}
	matchesExact(t, "warm start over the guard", over, sol)
	if met.Counter(obs.MetricSimplexWarmMisses) != 1 {
		t.Fatalf("warm_hits %d, warm_misses %d: the guard must hand the warm start to phase 1",
			met.Counter(obs.MetricSimplexWarmHits), met.Counter(obs.MetricSimplexWarmMisses))
	}
}
