package milp

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/etransform/etransform/internal/lp"
	"github.com/etransform/etransform/internal/obs"
	"github.com/etransform/etransform/internal/resilience/faultinject"
	"github.com/etransform/etransform/internal/simplex"
)

// TestBudgetMemoryStopsGracefully: an absurdly small open-node memory
// budget trips on the first claim after the root branches (root cuts
// off: they close knapsack30 at the root).
func TestBudgetMemoryStopsGracefully(t *testing.T) {
	m := stressModels()["knapsack30"]()
	sol, err := Solve(m, &Options{Workers: 1, disableDiving: true, disableCuts: true, MemoryBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != lp.StatusNodeLimit {
		t.Fatalf("status = %v, want node-limit", sol.Status)
	}
	if sol.Limit != lp.LimitMemory {
		t.Errorf("Limit = %q, want %q", sol.Limit, lp.LimitMemory)
	}
}

// TestOptionLimitBeatsLaterCtxDeadline: when the option wall limit is at
// or before the context deadline, expiry is always the graceful
// StatusNodeLimit with no error — never StatusCanceled — regardless of
// how late the poll happens.
func TestOptionLimitBeatsLaterCtxDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	m := stressModels()["knapsack30"]()
	sol, err := SolveContext(ctx, m, &Options{Workers: 1, disableDiving: true, TimeLimit: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != lp.StatusNodeLimit {
		t.Fatalf("status = %v, want node-limit from option time limit", sol.Status)
	}
	if sol.Limit != lp.LimitWallClock {
		t.Errorf("Limit = %q, want %q", sol.Limit, lp.LimitWallClock)
	}
}

// TestEarlierCtxDeadlineWinsAsCanceled: a context deadline strictly
// earlier than the option limit always yields StatusCanceled with
// context.DeadlineExceeded, whichever stop notices the expiry: the
// coordinator's clock poll, the root LP, or a node LP (driven through
// commit here, since dual restoration polls the deadline on every
// pivot and node LPs are where most expiries land). A root stopped by
// the deadline has proved no bound, so a warm-start incumbent
// surrendered with it carries gap +Inf.
func TestEarlierCtxDeadlineWinsAsCanceled(t *testing.T) {
	check := func(name string, sol *lp.Solution, err error) {
		t.Helper()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("%s: err = %v, want context.DeadlineExceeded", name, err)
		}
		if sol == nil || sol.Status != lp.StatusCanceled {
			t.Fatalf("%s: sol = %+v, want canceled partial result", name, sol)
		}
	}
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	m := stressModels()["knapsack30"]()
	sol, err := SolveContext(ctx, m, &Options{Workers: 1, disableDiving: true, TimeLimit: time.Hour})
	check("cold", sol, err)

	// All zeros fills no knapsack (objective 0); all ones covers every
	// row (objective 101).
	for name, v := range map[string]float64{"knapsack30": 0, "covering": 1} {
		m := stressModels()[name]()
		warm := make([]float64, m.NumVars())
		for j := range warm {
			warm[j] = v
		}
		sol, err := SolveContext(ctx, m, &Options{Workers: 1, TimeLimit: time.Hour, WarmStarts: [][]float64{warm}})
		check(name, sol, err)
		if sol.X == nil || sol.Objective != m.Objective(warm) {
			t.Fatalf("%s: point %v (objective %v), want the warm start", name, sol.X, sol.Objective)
		}
		if !math.IsInf(sol.Gap, 1) {
			t.Errorf("%s: gap %v, want +Inf: the root proved no bound", name, sol.Gap)
		}
	}

	c := newCoordinator(context.Background(), (&Options{Workers: 1}).withDefaults(), m)
	c.deadlineIsCtx = true
	w := c.newWorker(0)
	c.nodes, c.inFlight, c.flight[0] = 1, 1, 0
	c.commit(w, &lp.Solution{Status: lp.StatusIterLimit, Limit: lp.LimitWallClock}, nil, true, nil, nil, 1, 0, nil)
	sol, err = c.finish(w)
	check("node LP", sol, err)
}

// TestInjectedDeadlineWithInFlightNodes is the regression test for the
// deadline firing while workers hold in-flight nodes: the injected expiry
// trips one worker's claim while its peers are mid-LP, and the solve must
// still assemble a graceful node-limit result with the wall-clock label.
// Root cuts are off so knapsack30 reaches the node loop.
func TestInjectedDeadlineWithInFlightNodes(t *testing.T) {
	for _, workers := range []int{2, 8} {
		inj := faultinject.New(1, faultinject.Fault{Kind: faultinject.KindDeadline, After: 10, Count: -1})
		m := stressModels()["knapsack30"]()
		sol, err := Solve(m, &Options{Workers: workers, Inject: inj, disableCuts: true})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if sol.Status != lp.StatusNodeLimit && sol.Status != lp.StatusOptimal {
			t.Fatalf("workers=%d: status = %v, want graceful stop", workers, sol.Status)
		}
		if sol.Status == lp.StatusNodeLimit && sol.Limit != lp.LimitWallClock {
			t.Errorf("workers=%d: Limit = %q, want %q", workers, sol.Limit, lp.LimitWallClock)
		}
		if !inj.Fired(faultinject.KindDeadline) {
			t.Errorf("workers=%d: deadline fault never fired", workers)
		}
	}
}

// TestInjectedWorkerPanic is the race stress test for a worker dying
// mid-search with a claimed node in flight: the solve must return an
// error naming the panic — never deadlock the remaining workers. Root
// cuts are off so knapsack30 reaches the node loop.
func TestInjectedWorkerPanic(t *testing.T) {
	for _, workers := range []int{2, 8} {
		inj := faultinject.New(1, faultinject.Fault{Kind: faultinject.KindPanic, After: 3})
		m := stressModels()["knapsack30"]()
		done := make(chan error, 1)
		go func() {
			_, err := Solve(m, &Options{Workers: workers, Inject: inj, disableCuts: true})
			done <- err
		}()
		select {
		case err := <-done:
			if err == nil || !strings.Contains(err.Error(), "panicked") {
				t.Fatalf("workers=%d: err = %v, want worker panic error", workers, err)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("workers=%d: solve deadlocked after injected worker panic", workers)
		}
		if !inj.Fired(faultinject.KindPanic) {
			t.Errorf("workers=%d: panic fault never fired", workers)
		}
	}
}

// TestFailedSolveFoldsSearchTotals: a solve that ends in an error still
// folds its search totals. Under a panic on every claim (the CLIs'
// -faults panicxall) each worker dies on its first node, so milp.nodes
// must count the claimed nodes (exactly one at Workers=1), equal the
// sum of the per-worker counters, and sit next to the wall and busy
// times.
func TestFailedSolveFoldsSearchTotals(t *testing.T) {
	for _, workers := range []int{1, 4} {
		met := obs.NewMetrics()
		inj := faultinject.New(1, faultinject.Fault{Kind: faultinject.KindPanic, Count: -1})
		m := stressModels()["knapsack30"]()
		_, err := Solve(m, &Options{Workers: workers, Inject: inj, Metrics: met, disableCuts: true})
		if err == nil || !strings.Contains(err.Error(), "panicked") {
			t.Fatalf("workers=%d: err = %v, want worker panic error", workers, err)
		}
		nodes := met.Counter(obs.MetricMILPNodes)
		if workers == 1 && nodes != 1 {
			t.Errorf("workers=1: milp.nodes = %d, want the 1 node claimed before the panic", nodes)
		}
		var byWorker int64
		for i := 1; i <= workers; i++ {
			byWorker += met.Counter(obs.MetricMILPNodesWorkerPrefix + strconv.Itoa(i))
		}
		if nodes < 1 || byWorker != nodes {
			t.Errorf("workers=%d: milp.nodes = %d, per-worker sum %d; want equal and positive", workers, nodes, byWorker)
		}
		snap := met.Snapshot()
		for _, k := range []string{obs.MetricMILPWallMicros, obs.MetricMILPWorkMicros} {
			if _, ok := snap.Counters[k]; !ok {
				t.Errorf("workers=%d: %s not folded for the failed solve", workers, k)
			}
		}
	}
}

// TestInjectedCorruptionSurfacesAsError: NaN poisoning from a corrupted
// LP must become a solver error (which the planner's fallback chain
// handles), not a silent bogus "infeasible".
func TestInjectedCorruptionSurfacesAsError(t *testing.T) {
	inj := faultinject.New(1, faultinject.Fault{Kind: faultinject.KindCorrupt})
	m := stressModels()["knapsack30"]()
	_, err := Solve(m, &Options{Workers: 1, Inject: inj})
	if err == nil || !strings.Contains(err.Error(), "non-finite") {
		t.Fatalf("err = %v, want non-finite LP error", err)
	}
}

// TestInjectedStallMapsToIterationLimit: a stalled LP anywhere in the
// tree surrenders with the iterations label rather than erroring out.
func TestInjectedStallMapsToIterationLimit(t *testing.T) {
	clean, err := Solve(stressModels()["knapsack30"](), &Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	inj := faultinject.New(1, faultinject.Fault{Kind: faultinject.KindStall, After: clean.Iterations / 2})
	sol, err := Solve(stressModels()["knapsack30"](), &Options{Workers: 1, Inject: inj})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != lp.StatusIterLimit && sol.Status != lp.StatusNodeLimit {
		t.Fatalf("status = %v, want a limit status", sol.Status)
	}
	if sol.Limit != lp.LimitIterations {
		t.Errorf("Limit = %q, want %q", sol.Limit, lp.LimitIterations)
	}
}

// TestPerturbSeedIsDeterministic: the same seed must reproduce the exact
// same trajectory, and any seed must reach the same certified optimum.
func TestPerturbSeedIsDeterministic(t *testing.T) {
	build := stressModels()["knapsack30"]
	base, err := Solve(build(), &Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var prev *lp.Solution
	for run := 0; run < 2; run++ {
		sol, err := Solve(build(), &Options{Workers: 1, PerturbSeed: 7})
		if err != nil {
			t.Fatal(err)
		}
		if sol.Status != lp.StatusOptimal || sol.Objective != base.Objective {
			t.Fatalf("perturbed solve: status %v obj %v, want optimal %v", sol.Status, sol.Objective, base.Objective)
		}
		if prev != nil && (sol.Nodes != prev.Nodes || sol.Iterations != prev.Iterations) {
			t.Errorf("same seed diverged: (%d nodes, %d iters) vs (%d, %d)",
				sol.Nodes, sol.Iterations, prev.Nodes, prev.Iterations)
		}
		prev = sol
	}
}

// TestPerturbSeedSelectsBlandPricing: a solve with a nonzero PerturbSeed
// prices its LPs with Bland's rule and a zero seed does not — the
// contract of the planner's perturbed retry. The model has no integer
// variables and presolve is off, so the solve is its root LP alone and
// must pivot exactly as a direct simplex solve under the same rule.
func TestPerturbSeedSelectsBlandPricing(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m := lp.NewModel("bland")
	const n, rows = 12, 6
	for j := 0; j < n; j++ {
		m.AddContinuous("", 0, float64(1+rng.Intn(9)), -float64(1+rng.Intn(30)))
	}
	for i := 0; i < rows; i++ {
		var terms []lp.Term
		for j := 0; j < n; j++ {
			if rng.Intn(3) > 0 {
				terms = append(terms, lp.Term{Var: lp.VarID(j), Coef: float64(1 + rng.Intn(7))})
			}
		}
		m.AddRow("", terms, lp.LE, float64(10+rng.Intn(20)))
	}
	pivots := map[bool]int{}
	for _, seed := range []int64{0, 7919} {
		bland := seed != 0
		sol, err := Solve(m, &Options{Workers: 1, PerturbSeed: seed, disablePresolve: true})
		if err != nil {
			t.Fatal(err)
		}
		ref, err := simplex.Solve(m.Relax(), &simplex.Options{Bland: bland})
		if err != nil {
			t.Fatal(err)
		}
		if sol.Status != lp.StatusOptimal || ref.Status != lp.StatusOptimal {
			t.Fatalf("seed %d: status %v, reference %v, want both optimal", seed, sol.Status, ref.Status)
		}
		if sol.Iterations != ref.Iterations {
			t.Errorf("seed %d: %d pivots, a direct solve with Bland=%v takes %d",
				seed, sol.Iterations, bland, ref.Iterations)
		}
		pivots[bland] = ref.Iterations
	}
	if pivots[true] == pivots[false] {
		t.Fatalf("both pricing rules take %d pivots on this model; the test cannot tell them apart", pivots[true])
	}
}
