package milp

import (
	"math"
	"math/rand"
	"testing"

	"github.com/etransform/etransform/internal/lp"
	"github.com/etransform/etransform/internal/obs"
)

// knapsack2 is min −a−b s.t. 2a+2b ≤ 3 over binaries a, b: the root LP
// bound is −1.5, the MILP optimum −1, and the cover a+b ≤ 1 closes the
// gap.
func knapsack2() *lp.Model {
	m := lp.NewModel("gap")
	a := m.AddBinary("a", -1)
	b := m.AddBinary("b", -1)
	m.AddRow("cap", []lp.Term{{Var: a, Coef: 2}, {Var: b, Coef: 2}}, lp.LE, 3)
	return m
}

// TestCutsCloseKnapsackGapAtRoot: the root must separate at least one
// cut and the solve must still land exactly on the MILP optimum −1.
func TestCutsCloseKnapsackGapAtRoot(t *testing.T) {
	met := obs.NewMetrics()
	sol := solveOrFatal(t, knapsack2(), &Options{Metrics: met})
	if sol.Status != lp.StatusOptimal || math.Abs(sol.Objective - -1) > 1e-9 {
		t.Fatalf("status %v objective %v, want optimal -1", sol.Status, sol.Objective)
	}
	if got := met.Counter(obs.MetricMILPCutsSeparated); got < 1 {
		t.Fatalf("cuts_separated = %d, want ≥ 1", got)
	}
	if sep, act := met.Counter(obs.MetricMILPCutsSeparated), met.Counter(obs.MetricMILPCutsActive); act < 0 || act > sep {
		t.Fatalf("cuts_active = %d outside [0, cuts_separated=%d]", act, sep)
	}
}

// TestCutsStopAtClosedRootGap locks the cut loop's stop rule: a round
// starts only while the root LP bound leaves the incumbent outside
// GapTol. With the warm start a=1 (objective −1) against the root
// bound −1.5 the relative gap is 0.5, so at GapTol 0.6 the root is
// already closed and separates nothing — no cut counter key at all —
// while at GapTol 0.4 it must cut.
func TestCutsStopAtClosedRootGap(t *testing.T) {
	for _, tc := range []struct {
		gapTol float64
		cuts   bool
	}{{0.6, false}, {0.4, true}} {
		met := obs.NewMetrics()
		sol := solveOrFatal(t, knapsack2(), &Options{
			GapTol:     tc.gapTol,
			Workers:    1,
			WarmStarts: [][]float64{{1, 0}},
			Metrics:    met,
		})
		if !sol.Status.HasSolution() || math.Abs(sol.Objective - -1) > 1e-9 {
			t.Fatalf("GapTol %v: status %v objective %v, want -1", tc.gapTol, sol.Status, sol.Objective)
		}
		_, cut := met.Snapshot().Counters[obs.MetricMILPCutsSeparated]
		if cut != tc.cuts {
			t.Errorf("GapTol %v: %s present = %v, want %v", tc.gapTol, obs.MetricMILPCutsSeparated, cut, tc.cuts)
		}
	}
}

// TestCutsEquivalence: root cuts must never change the certified
// optimum — only how fast the tree collapses. The cuts-off reference
// is disableCuts. 40 seeds at workers 1 and 4 (run under -race by
// scripts/check.sh).
func TestCutsEquivalence(t *testing.T) {
	for _, workers := range []int{1, 4} {
		for seed := int64(1); seed <= 40; seed++ {
			m := randomObsModel(rand.New(rand.NewSource(seed)))
			sol1, err := Solve(m, &Options{Workers: workers, disableCuts: true})
			if err != nil {
				t.Fatalf("seed=%d workers=%d: base solve: %v", seed, workers, err)
			}
			sol2, err := Solve(m, &Options{Workers: workers})
			if err != nil {
				t.Fatalf("seed=%d workers=%d: cuts solve: %v", seed, workers, err)
			}
			if sol1.Status != sol2.Status {
				t.Fatalf("seed=%d workers=%d: status %v vs %v", seed, workers, sol1.Status, sol2.Status)
			}
			if !sol1.Status.HasSolution() {
				continue
			}
			rel := 1e-6 * math.Max(1, math.Abs(sol1.Objective))
			if d := math.Abs(sol1.Objective - sol2.Objective); d > rel {
				t.Fatalf("seed=%d workers=%d: objective %v vs %v (Δ %.3g)",
					seed, workers, sol1.Objective, sol2.Objective, d)
			}
		}
	}
}

// TestCutsDeterministicAcrossWorkers: cuts run in the sequential root
// phase, so their whole trajectory — separated and active cut counts —
// must not depend on the worker count.
func TestCutsDeterministicAcrossWorkers(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		counts := make(map[int][2]int64)
		for _, workers := range []int{1, 4} {
			m := randomObsModel(rand.New(rand.NewSource(seed)))
			met := obs.NewMetrics()
			sol, err := Solve(m, &Options{Workers: workers, Metrics: met})
			if err != nil {
				t.Fatalf("seed=%d workers=%d: %v", seed, workers, err)
			}
			if !sol.Status.HasSolution() {
				continue
			}
			counts[workers] = [2]int64{
				met.Counter(obs.MetricMILPCutsSeparated),
				met.Counter(obs.MetricMILPCutsActive),
			}
		}
		if counts[1] != counts[4] {
			t.Fatalf("seed=%d: root-phase counters differ across workers: w1=%v w4=%v",
				seed, counts[1], counts[4])
		}
	}
}

// TestCutsPureLPPassthrough: a model with no integer variables must be
// untouched by the cut machinery.
func TestCutsPureLPPassthrough(t *testing.T) {
	m := lp.NewModel("pure")
	x := m.AddVar(lp.Variable{Name: "x", Upper: 10, Cost: -1})
	m.AddRow("r", []lp.Term{{Var: x, Coef: 2}}, lp.LE, 7)
	sol := solveOrFatal(t, m, nil)
	if sol.Status != lp.StatusOptimal || math.Abs(sol.Objective - -3.5) > 1e-9 {
		t.Fatalf("status %v objective %v, want optimal -3.5", sol.Status, sol.Objective)
	}
}
