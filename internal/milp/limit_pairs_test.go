package milp

import (
	"math/rand"
	"testing"
	"time"

	"github.com/etransform/etransform/internal/lp"
	"github.com/etransform/etransform/internal/obs"
	"github.com/etransform/etransform/internal/resilience/faultinject"
	"github.com/etransform/etransform/internal/simplex"
)

// This file exercises every reachable (Status, Limit) pair end to end —
// the contract lp.ValidLimit encodes. Each case drives a real solver
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

func TestLimitPairSimplexIterations(t *testing.T) {
	sol, err := simplex.Solve(limitKnapsack().Relax(), &simplex.Options{MaxIters: 1})
	if err != nil {
		t.Fatal(err)
	}
	assertPair(t, sol, lp.StatusIterLimit, lp.LimitIterations)
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

// TestLimitPairMILPIterLimitPassthrough stalls the root LP itself: the
// coordinator passes the simplex pair through unchanged.
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

// TestLimitEmptyOnCleanOutcomes pins Limit == "" for conclusive solves.
func TestLimitEmptyOnCleanOutcomes(t *testing.T) {
	sol := solveOrFatal(t, limitKnapsack(), &Options{Workers: 1})
	assertPair(t, sol, lp.StatusOptimal, "")

	infeas := lp.NewModel("infeas")
	a := infeas.AddBinary("a", 1)
	infeas.AddRow("r", []lp.Term{{Var: a, Coef: 1}}, lp.GE, 2)
	sol = solveOrFatal(t, infeas, nil)
	assertPair(t, sol, lp.StatusInfeasible, "")
}
