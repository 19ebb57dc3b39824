package milp

import (
	"math"
	"math/rand"
	"testing"

	"github.com/etransform/etransform/internal/lp"
	"github.com/etransform/etransform/internal/milp/cuts"
	"github.com/etransform/etransform/internal/obs"
)

// TestCutsCloseKnapsackGapAtRoot: on min −x0−x1 s.t. 2x0+2x1 ≤ 3 the
// root LP bound is −1.5; with cuts enabled the root must separate at
// least one cut (the cover x0+x1 ≤ 1 closes the gap entirely) and the
// solve must still land exactly on the MILP optimum −1.
func TestCutsCloseKnapsackGapAtRoot(t *testing.T) {
	m := lp.NewModel("gap")
	a := m.AddBinary("a", -1)
	b := m.AddBinary("b", -1)
	m.AddRow("cap", []lp.Term{{Var: a, Coef: 2}, {Var: b, Coef: 2}}, lp.LE, 3)

	met := obs.NewMetrics()
	sol := solveOrFatal(t, m, &Options{
		Cuts:    cuts.Options{Enable: true},
		Metrics: met,
	})
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

// TestCutsMetricsAbsentWhenDisabled: the default configuration must not
// grow new metric keys — golden metric snapshots depend on the exact
// key set.
func TestCutsMetricsAbsentWhenDisabled(t *testing.T) {
	m := lp.NewModel("nometrics")
	a := m.AddBinary("a", -1)
	b := m.AddBinary("b", -1)
	m.AddRow("cap", []lp.Term{{Var: a, Coef: 2}, {Var: b, Coef: 2}}, lp.LE, 3)
	met := obs.NewMetrics()
	solveOrFatal(t, m, &Options{Metrics: met})
	snap := met.Snapshot()
	for _, k := range []string{obs.MetricMILPCutsSeparated, obs.MetricMILPCutsActive} {
		if _, ok := snap.Counters[k]; ok {
			t.Errorf("metric %s present in a cuts-off solve", k)
		}
	}
}

// TestCutsEquivalence: enabling root cuts must never change the
// certified optimum — only how fast the tree collapses. 40 seeds at
// workers 1 and 4 (run under -race by scripts/check.sh).
func TestCutsEquivalence(t *testing.T) {
	for _, workers := range []int{1, 4} {
		for seed := int64(1); seed <= 40; seed++ {
			m := randomObsModel(rand.New(rand.NewSource(seed)))
			sol1, err := Solve(m, &Options{Workers: workers})
			if err != nil {
				t.Fatalf("seed=%d workers=%d: base solve: %v", seed, workers, err)
			}
			sol2, err := Solve(m, &Options{Workers: workers, Cuts: cuts.Options{Enable: true}})
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
			sol, err := Solve(m, &Options{
				Workers: workers,
				Cuts:    cuts.Options{Enable: true},
				Metrics: met,
			})
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
	sol := solveOrFatal(t, m, &Options{Cuts: cuts.Options{Enable: true}})
	if sol.Status != lp.StatusOptimal || math.Abs(sol.Objective - -3.5) > 1e-9 {
		t.Fatalf("status %v objective %v, want optimal -3.5", sol.Status, sol.Objective)
	}
}
