package milp

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"github.com/etransform/etransform/internal/lp"
	"github.com/etransform/etransform/internal/obs"
	"github.com/etransform/etransform/internal/resilience/faultinject"
	"github.com/etransform/etransform/internal/simplex"
)

// This file exercises every reachable (Status, Limit) pair end to end —
// the contract lp.ValidLimit encodes; the simplex iteration-cap pair is
// driven in package simplex, whose test hook sets the cap. Each case drives a real solver
// into the terminal state rather than constructing the pair by hand, so
// a drift between the solvers and the documented pair set fails here.

// limitKnapsack returns a 30-binary knapsack whose LP relaxation is
// fractional, forcing branch & bound to open child nodes. Root cuts
// close it at the root, so the node and memory cases run with
// disableCuts.
func limitKnapsack() *lp.Model {
	rng := rand.New(rand.NewSource(3))
	m := lp.NewModel("pairs")
	var terms []lp.Term
	for j := 0; j < 30; j++ {
		v := m.AddBinary("", -float64(1+rng.Intn(100)))
		terms = append(terms, lp.Term{Var: v, Coef: float64(1 + rng.Intn(10))})
	}
	m.AddRow("w", terms, lp.LE, 40)
	return m
}

func assertPair(t *testing.T, sol *lp.Solution, status lp.Status, limit string) {
	t.Helper()
	if sol.Status != status || sol.Limit != limit {
		t.Fatalf("got (%v, %q), want (%v, %q)", sol.Status, sol.Limit, status, limit)
	}
	if !lp.ValidLimit(sol.Status, sol.Limit) {
		t.Fatalf("solver produced (%v, %q), which lp.ValidLimit rejects", sol.Status, sol.Limit)
	}
}

func TestLimitPairSimplexWallClock(t *testing.T) {
	sol, err := simplex.Solve(limitKnapsack().Relax(), &simplex.Options{Deadline: time.Now().Add(-time.Second)})
	if err != nil {
		t.Fatal(err)
	}
	assertPair(t, sol, lp.StatusIterLimit, lp.LimitWallClock)
}

func TestLimitPairMILPNodes(t *testing.T) {
	sol := solveOrFatal(t, limitKnapsack(), &Options{
		MaxNodes: 1, GapTol: 1e-12, disableDiving: true, disableCuts: true, Workers: 1,
	})
	assertPair(t, sol, lp.StatusNodeLimit, lp.LimitNodes)
}

func TestLimitPairMILPMemory(t *testing.T) {
	sol := solveOrFatal(t, limitKnapsack(), &Options{
		MemoryBytes: 1, GapTol: 1e-12, disableDiving: true, disableCuts: true, Workers: 1,
	})
	assertPair(t, sol, lp.StatusNodeLimit, lp.LimitMemory)
}

func TestLimitPairMILPWallClock(t *testing.T) {
	sol := solveOrFatal(t, limitKnapsack(), &Options{
		TimeLimit: time.Nanosecond, GapTol: 1e-12, disableDiving: true, Workers: 1,
	})
	assertPair(t, sol, lp.StatusNodeLimit, lp.LimitWallClock)
}

// TestLimitPairMILPIterLimitPassthrough stalls the root LP itself: with
// no incumbent to surrender, the coordinator passes the simplex pair
// through unchanged.
func TestLimitPairMILPIterLimitPassthrough(t *testing.T) {
	sol, err := Solve(limitKnapsack(), &Options{
		GapTol: 1e-12, disableDiving: true, Workers: 1,
		Inject: faultinject.New(1, faultinject.Fault{Kind: faultinject.KindStall}),
	})
	if err != nil {
		t.Fatal(err)
	}
	assertPair(t, sol, lp.StatusIterLimit, lp.LimitIterations)
}

// TestRootStallSurrendersWarmStart stalls the root LP of a warm-started
// solve: the incumbent accepted before the root is surrendered at the
// iterations limit with an unknown gap, as a root wall-clock stop does,
// rather than passed through as a solve with no point.
func TestRootStallSurrendersWarmStart(t *testing.T) {
	m := limitKnapsack()
	zeros := make([]float64, m.NumVars())
	sol, err := Solve(m, &Options{
		GapTol: 1e-12, Workers: 1, WarmStarts: [][]float64{zeros},
		Inject: faultinject.New(1, faultinject.Fault{Kind: faultinject.KindStall, Count: -1}),
	})
	if err != nil {
		t.Fatal(err)
	}
	assertPair(t, sol, lp.StatusNodeLimit, lp.LimitIterations)
	if sol.X == nil || m.Objective(sol.X) != 0 || sol.Objective != 0 {
		t.Fatalf("solution %v (objective %v), want the all-zeros warm start", sol.X, sol.Objective)
	}
	if !math.IsInf(sol.Gap, 1) {
		t.Errorf("gap %v, want +Inf: the stalled root proved no bound", sol.Gap)
	}
}

// TestLimitPairMILPIterations stalls a *child* node LP (not the root):
// branch & bound surrenders the search solve-wide with StatusNodeLimit
// and the child's LimitIterations. The stall site is hit once per
// simplex iteration across all LPs in the solve, so the fault is armed
// just past the root's measured pivot count; the exact pass where the
// root's final optimality check lands can shift the boundary by one or
// two hits, hence the short scan.
func TestLimitPairMILPIterations(t *testing.T) {
	m := limitKnapsack()
	sink := &obs.MemorySink{}
	base := Options{GapTol: 1e-12, disableDiving: true, Workers: 1}
	probe := base
	probe.Trace = obs.NewDeterministic(sink)
	solveOrFatal(t, m, &probe)
	rootIters := -1
	for _, e := range sink.Events() {
		if e.Kind == obs.KindPhaseEnd && e.Phase == 2 {
			rootIters = e.Iterations
			break
		}
	}
	if rootIters < 0 {
		t.Fatal("no phase_end event for the root LP")
	}
	for after := rootIters + 1; after <= rootIters+8; after++ {
		opts := base
		opts.Inject = faultinject.New(1, faultinject.Fault{
			Kind: faultinject.KindStall, After: after, Count: -1,
		})
		sol, err := Solve(m, &opts)
		if err != nil {
			t.Fatal(err)
		}
		if sol.Status == lp.StatusIterLimit {
			continue // fired inside the root after all; move past it
		}
		assertPair(t, sol, lp.StatusNodeLimit, lp.LimitIterations)
		return
	}
	t.Fatalf("no stall offset in [%d, %d] reached a child LP", rootIters+1, rootIters+8)
}

// TestLimitEmptyOnCleanOutcomes pins Limit == "" for conclusive solves,
// and that an infeasible verdict, whether presolve or the root LP
// reaches it, is a whole solve: one solve_start and one solve_end, one
// milp.solves count, and the solve's statistics.
func TestLimitEmptyOnCleanOutcomes(t *testing.T) {
	sol := solveOrFatal(t, limitKnapsack(), &Options{Workers: 1})
	assertPair(t, sol, lp.StatusOptimal, "")

	// Presolve refutes a ≥ 2 for a binary a. Its 10 passes cannot
	// refute the cycle x − y ≥ 1, y − z ≥ 1, z − x ≥ 1 over integers in
	// [0, 1000], so the root LP proves that one infeasible.
	infeas := lp.NewModel("infeas")
	a := infeas.AddBinary("a", 1)
	infeas.AddRow("r", []lp.Term{{Var: a, Coef: 1}}, lp.GE, 2)
	sol = solveOrFatal(t, infeas, nil)
	assertPair(t, sol, lp.StatusInfeasible, "")

	cycle := lp.NewModel("cycle")
	for j := 0; j < 3; j++ {
		cycle.AddVar(lp.Variable{Upper: 1000, Type: lp.Integer})
	}
	for j := 0; j < 3; j++ {
		cycle.AddRow("", []lp.Term{{Var: lp.VarID(j), Coef: 1}, {Var: lp.VarID((j + 1) % 3), Coef: -1}}, lp.GE, 1)
	}
	for _, m := range []*lp.Model{infeas, cycle} {
		met := obs.NewMetrics()
		sink := &obs.MemorySink{}
		sol := solveOrFatal(t, m, &Options{Workers: 1, Trace: obs.NewDeterministic(sink), Metrics: met})
		assertPair(t, sol, lp.StatusInfeasible, "")
		if sol.Workers != 1 || sol.WallTime <= 0 {
			t.Errorf("%s: Workers %d, WallTime %v; want 1 and > 0", m.Name, sol.Workers, sol.WallTime)
		}
		kinds := map[obs.Kind]int{}
		for _, e := range sink.Events() {
			kinds[e.Kind]++
		}
		if kinds[obs.KindSolveStart] != 1 || kinds[obs.KindSolveEnd] != 1 {
			t.Errorf("%s: %d solve_start, %d solve_end events; want one each",
				m.Name, kinds[obs.KindSolveStart], kinds[obs.KindSolveEnd])
		}
		if got := met.Counter(obs.MetricMILPSolves); got != 1 {
			t.Errorf("%s: milp.solves = %d, want 1", m.Name, got)
		}
		if got := met.Counter(obs.MetricMILPWallMicros); got != sol.WallTime.Microseconds() {
			t.Errorf("%s: milp.wall_us = %d, sol.WallTime = %v", m.Name, got, sol.WallTime)
		}
	}
}
