package milp

import (
	"math"
	"math/rand"
	"testing"

	"github.com/etransform/etransform/internal/certify"
	"github.com/etransform/etransform/internal/lp"
	"github.com/etransform/etransform/internal/obs"
	"github.com/etransform/etransform/internal/resilience/faultinject"
	"github.com/etransform/etransform/internal/simplex"
	"github.com/etransform/etransform/internal/tol"
)

// TestWarmColdEquivalence checks the warm-started search against the
// independent exhaustive-enumeration oracle: 50 seeded models (at most
// 15 binaries each, so bruteForceMILP enumerates every point) solved at
// Workers 1 and 4 must certify exactly the oracle's optimum. Every node
// LP and dive pass goes through SolveFrom, so this is the end-to-end
// check that neither a warm hit nor a cold fallback on a stale basis
// ever changes the answer. The generator uses integer costs,
// so the optimum is exactly representable and the comparison is exact.
func TestWarmColdEquivalence(t *testing.T) {
	const seeds = 50
	for seed := int64(1); seed <= seeds; seed++ {
		m := randomObsModel(rand.New(rand.NewSource(seed)))
		want, feasible := bruteForceMILP(m)
		if !feasible {
			t.Fatalf("seed=%d: the all-zero point is feasible, yet the oracle found none", seed)
		}
		for _, workers := range []int{1, 4} {
			sol, err := Solve(m.Clone(), &Options{Workers: workers})
			if err != nil {
				t.Fatalf("workers=%d seed=%d: %v", workers, seed, err)
			}
			if sol.Status != lp.StatusOptimal || sol.Limit != "" {
				t.Fatalf("workers=%d seed=%d: status %v limit %q, want optimal",
					workers, seed, sol.Status, sol.Limit)
			}
			if _, err := certify.CheckSolution(m, sol, nil); err != nil {
				t.Fatalf("workers=%d seed=%d: certify: %v", workers, seed, err)
			}
			if sol.Objective != want {
				t.Fatalf("workers=%d seed=%d: objective %v, oracle %v", workers, seed, sol.Objective, want)
			}
		}
	}
}

// TestReuseBasisIgnored: the deprecated Options.ReuseBasis field selects
// nothing, so at Workers=1 setting it either way gives the identical
// search — same nodes, iterations and objective.
func TestReuseBasisIgnored(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		m := randomObsModel(rand.New(rand.NewSource(seed)))
		var sols [2]*lp.Solution
		for i, reuse := range []bool{false, true} {
			sol, err := Solve(m.Clone(), &Options{Workers: 1, ReuseBasis: reuse})
			if err != nil {
				t.Fatalf("seed=%d reuse=%v: %v", seed, reuse, err)
			}
			sols[i] = sol
		}
		a, b := sols[0], sols[1]
		if a.Nodes != b.Nodes || a.Iterations != b.Iterations || a.Objective != b.Objective {
			t.Fatalf("seed=%d: ReuseBasis changed the search: (%d nodes, %d iters, obj %v) vs (%d nodes, %d iters, obj %v)",
				seed, a.Nodes, a.Iterations, a.Objective, b.Nodes, b.Iterations, b.Objective)
		}
	}
}

// TestWarmHitsRecorded: on a model that genuinely branches, warm starts
// must actually engage — warm_hits > 0 in the folded metrics — with
// the folded pivot total reconciling with the solution's iterations.
func TestWarmHitsRecorded(t *testing.T) {
	m := randomObsModel(rand.New(rand.NewSource(11)))
	met := obs.NewMetrics()
	sol, err := Solve(m, &Options{Workers: 1, Metrics: met})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != lp.StatusOptimal || sol.Nodes < 3 {
		t.Fatalf("seed 11 no longer branches (status %v, %d nodes); pick another seed",
			sol.Status, sol.Nodes)
	}
	if hits := met.Counter(obs.MetricSimplexWarmHits); hits == 0 {
		t.Fatal("branching solve recorded no warm hits")
	}
	if met.Counter(obs.MetricSimplexPivots) != int64(sol.Iterations) {
		t.Fatalf("folded pivots %d != solution iterations %d",
			met.Counter(obs.MetricSimplexPivots), sol.Iterations)
	}
}

// TestWarmDeterministicAtWorkersOne: warm-started node LPs must
// preserve the Workers=1 determinism guarantee — two runs are
// bit-identical in nodes, iterations, and objective.
func TestWarmDeterministicAtWorkersOne(t *testing.T) {
	m := randomObsModel(rand.New(rand.NewSource(23)))
	var prev *lp.Solution
	for run := 0; run < 2; run++ {
		sol, err := Solve(m.Clone(), &Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if prev != nil {
			if sol.Nodes != prev.Nodes || sol.Iterations != prev.Iterations || sol.Objective != prev.Objective {
				t.Fatalf("run %d diverged: (%d nodes, %d iters, obj %v) vs (%d nodes, %d iters, obj %v)",
					run, sol.Nodes, sol.Iterations, sol.Objective,
					prev.Nodes, prev.Iterations, prev.Objective)
			}
		}
		prev = sol
	}
}

// TestGapZeroOptimum is the regression for the relative-gap computation
// when the incumbent objective is exactly 0: minimize −(x+y)+c with
// binary x,y, c fixed to 1 with cost 1, under x+y ≤ 1.5. The LP bound
// is −0.5, forcing a branch; the integer optimum is exactly 0. The old
// gap formula divided by |incumbent| = 0 and returned ±Inf/NaN, so the
// search could never observe gap ≤ GapTol; tol.RelGap's max(1,|inc|)
// denominator makes the proved gap an exact 0.
func TestGapZeroOptimum(t *testing.T) {
	m := lp.NewModel("gap-zero")
	x := m.AddBinary("x", -1)
	y := m.AddBinary("y", -1)
	m.AddContinuous("c", 1, 1, 1)
	m.AddRow("cap", []lp.Term{{Var: x, Coef: 1}, {Var: y, Coef: 1}}, lp.LE, 1.5)
	// Presolve would round the ≤1.5 row down to ≤1 and solve at the
	// root; disable it so the zero-incumbent gap test actually
	// exercises the branching loop's gap computation.
	sol, err := Solve(m, &Options{Workers: 1, disablePresolve: true})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != lp.StatusOptimal {
		t.Fatalf("status = %v, want optimal", sol.Status)
	}
	if sol.Objective != 0 {
		t.Fatalf("objective = %v, want exactly 0", sol.Objective)
	}
	if math.IsNaN(sol.Gap) || math.IsInf(sol.Gap, 0) {
		t.Fatalf("non-finite gap %v with zero incumbent", sol.Gap)
	}
	if sol.Gap != 0 {
		t.Fatalf("gap = %v, want exactly 0 at proved optimum", sol.Gap)
	}
	if sol.Nodes < 2 {
		t.Fatalf("solved in %d nodes; model no longer forces a branch", sol.Nodes)
	}
}

// TestWarmStartDeadlineKeepsReportedGap pins the reported-gap invariant
// behind the fig6/federal warm-start regression: when the budget expires
// right after the root LP, the solve must still report the finite
// certified gap of its root bound — never the unknown sentinel, however
// the dive's warm starts fared. The expected gap comes from an
// independent cold solve of the root relaxation.
func TestWarmStartDeadlineKeepsReportedGap(t *testing.T) {
	m := stressModels()["knapsack30"]()
	root, err := simplex.Solve(m.Relax(), nil)
	if err != nil || root.Status != lp.StatusOptimal {
		t.Fatalf("root relaxation: status %v, err %v", root.Status, err)
	}
	// All-zeros is integral and satisfies the single <= row, so it
	// seeds the incumbent (objective 0) before any LP runs; the
	// injected deadline then fires at every coordinator budget check,
	// leaving the root LP's objective as the only bound.
	zeros := make([]float64, m.NumVars())
	inj := faultinject.New(1, faultinject.Fault{Kind: faultinject.KindDeadline, Count: -1})
	sol, err := Solve(m, &Options{
		Workers:    1,
		WarmStarts: [][]float64{zeros},
		Inject:     inj,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !inj.Fired(faultinject.KindDeadline) {
		t.Fatal("injected deadline never fired")
	}
	if sol.Status != lp.StatusNodeLimit || sol.Limit != lp.LimitWallClock {
		t.Fatalf("status %v limit %q, want node limit at wall clock", sol.Status, sol.Limit)
	}
	if math.IsInf(sol.Gap, 0) || math.IsNaN(sol.Gap) {
		t.Fatalf("gap %v degraded to the unknown sentinel", sol.Gap)
	}
	if sol.Gap <= 0 {
		t.Fatalf("gap %v; the zero incumbent must leave a positive gap", sol.Gap)
	}
	want := tol.RelGap(0, root.Objective)
	if math.Abs(sol.Gap-want) > 1e-9*math.Max(1, want) {
		t.Fatalf("reported gap %v, want the root bound's gap %v", sol.Gap, want)
	}
}
