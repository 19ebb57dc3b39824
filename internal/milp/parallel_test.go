package milp

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"github.com/etransform/etransform/internal/certify"
	"github.com/etransform/etransform/internal/lp"
)

// stressModels builds a family of all-integer-data models so that every
// optimal objective is float-exact and worker counts can be compared
// with ==.
func stressModels() map[string]func() *lp.Model {
	return map[string]func() *lp.Model{
		"knapsack30": func() *lp.Model {
			rng := rand.New(rand.NewSource(41))
			m := lp.NewModel("knap30")
			var terms []lp.Term
			for j := 0; j < 30; j++ {
				v := m.AddBinary("", -float64(1+rng.Intn(60)))
				terms = append(terms, lp.Term{Var: v, Coef: float64(1 + rng.Intn(8))})
			}
			m.AddRow("w", terms, lp.LE, 45)
			return m
		},
		"assignment": func() *lp.Model {
			rng := rand.New(rand.NewSource(17))
			const groups, dcs = 10, 3
			m := lp.NewModel("assign")
			vars := make([][]lp.VarID, groups)
			sizes := make([]float64, groups)
			total := 0.0
			for i := range vars {
				sizes[i] = float64(1 + rng.Intn(9))
				total += sizes[i]
				vars[i] = make([]lp.VarID, dcs)
				terms := make([]lp.Term, dcs)
				for j := 0; j < dcs; j++ {
					vars[i][j] = m.AddBinary("", float64(1+rng.Intn(50))*sizes[i])
					terms[j] = lp.Term{Var: vars[i][j], Coef: 1}
				}
				m.AddRow("", terms, lp.EQ, 1)
			}
			for j := 0; j < dcs; j++ {
				terms := make([]lp.Term, groups)
				for i := 0; i < groups; i++ {
					terms[i] = lp.Term{Var: vars[i][j], Coef: sizes[i]}
				}
				m.AddRow("", terms, lp.LE, 0.5*total)
			}
			return m
		},
		"covering": func() *lp.Model {
			rng := rand.New(rand.NewSource(5))
			m := lp.NewModel("cover")
			const n = 18
			for j := 0; j < n; j++ {
				m.AddBinary("", float64(1+rng.Intn(9)))
			}
			for r := 0; r < 12; r++ {
				var terms []lp.Term
				for j := 0; j < n; j++ {
					if rng.Intn(3) == 0 {
						terms = append(terms, lp.Term{Var: lp.VarID(j), Coef: 1})
					}
				}
				if len(terms) == 0 {
					terms = append(terms, lp.Term{Var: lp.VarID(r % n), Coef: 1})
				}
				m.AddRow("", terms, lp.GE, 1)
			}
			return m
		},
	}
}

// TestWorkersIdenticalCertifiedResults is the race stress test: the same
// model solved with 1, 2 and 8 workers must yield the same status, the
// same objective (exactly — the data is all-integer) and the same
// certify verdict. Run under -race this also exercises the
// coordinator's locking on a single shared queue.
func TestWorkersIdenticalCertifiedResults(t *testing.T) {
	for name, build := range stressModels() {
		t.Run(name, func(t *testing.T) {
			type outcome struct {
				status   lp.Status
				obj      float64
				feasible bool
			}
			var base *outcome
			for _, workers := range []int{1, 2, 8} {
				m := build()
				sol, err := Solve(m, &Options{Workers: workers})
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				cert, err := certify.CheckSolution(m, sol, nil)
				if err != nil {
					t.Fatalf("workers=%d: certify: %v", workers, err)
				}
				got := &outcome{status: sol.Status, obj: sol.Objective, feasible: cert != nil && cert.Feasible}
				if !got.feasible {
					t.Fatalf("workers=%d: solution failed certification: %+v", workers, cert)
				}
				if sol.Workers != workers {
					t.Errorf("workers=%d: sol.Workers = %d", workers, sol.Workers)
				}
				if base == nil {
					base = got
					continue
				}
				if *got != *base {
					t.Errorf("workers=%d: outcome %+v differs from workers=1 %+v", workers, got, base)
				}
			}
		})
	}
}

// TestWorkersRepeatedRaces re-solves one model many times at high worker
// counts so -race gets real interleavings, asserting the objective never
// moves.
func TestWorkersRepeatedRaces(t *testing.T) {
	build := stressModels()["knapsack30"]
	ref, err := Solve(build(), &Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	rounds := 20
	if testing.Short() {
		rounds = 5
	}
	for i := 0; i < rounds; i++ {
		sol, err := Solve(build(), &Options{Workers: 8})
		if err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
		if sol.Status != ref.Status || sol.Objective != ref.Objective {
			t.Fatalf("round %d: (%v, %v), want (%v, %v)", i, sol.Status, sol.Objective, ref.Status, ref.Objective)
		}
	}
}

// TestCancellationReturnsPartialIncumbent: a canceled context must
// surface context.Canceled, and the partial solution must carry the best
// incumbent found before the cancel — feasible, certified, but not
// claiming HasSolution. A warm start (all-zero is feasible for a
// knapsack) guarantees an incumbent exists at cancel time.
func TestCancellationReturnsPartialIncumbent(t *testing.T) {
	m := stressModels()["knapsack30"]()
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // canceled before the tree search starts
	warm := make([]float64, m.NumVars())
	sol, err := SolveContext(ctx, m, &Options{GapTol: 1e-12, Workers: 4, WarmStarts: [][]float64{warm}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if sol == nil {
		t.Fatal("nil solution on cancellation")
	}
	if sol.Status != lp.StatusCanceled {
		t.Fatalf("status = %v, want canceled", sol.Status)
	}
	if sol.Status.HasSolution() {
		t.Error("StatusCanceled must not report HasSolution")
	}
	// Warm starts are accepted before the context is consulted, so an
	// incumbent worth salvaging must exist.
	if sol.X == nil {
		t.Fatal("expected a partial incumbent from the warm start")
	}
	if err := m.CheckFeasible(sol.X, 1e-6); err != nil {
		t.Errorf("partial incumbent infeasible: %v", err)
	}
	cert, err := certify.Check(m, sol.X, nil)
	if err != nil {
		t.Fatalf("certify: %v", err)
	}
	if !cert.Feasible {
		t.Errorf("partial incumbent failed certification: %s", cert.Summary())
	}
	if sol.Gap < 0 {
		t.Errorf("negative gap %v", sol.Gap)
	}
}

// TestCancellationMidSearch cancels while workers are in flight; the
// solve must stop with either a canceled partial result or a finished
// solution (if it won the race), never hang or corrupt state.
func TestCancellationMidSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	m := lp.NewModel("hard")
	var terms []lp.Term
	for j := 0; j < 40; j++ {
		v := m.AddBinary("", -float64(1+rng.Intn(100)))
		terms = append(terms, lp.Term{Var: v, Coef: float64(1 + rng.Intn(10))})
	}
	m.AddRow("w", terms, lp.LE, 55)
	ctx, cancel := context.WithCancel(context.Background())
	go cancel()
	sol, err := SolveContext(ctx, m, &Options{GapTol: 1e-12, Workers: 4, disableDiving: true})
	if err != nil {
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if sol == nil || sol.Status != lp.StatusCanceled {
			t.Fatalf("canceled solve returned %+v", sol)
		}
		if sol.X != nil {
			if ferr := m.CheckFeasible(sol.X, 1e-6); ferr != nil {
				t.Errorf("partial incumbent infeasible: %v", ferr)
			}
		}
		return
	}
	// The solve won the race against cancel; the result must be a
	// normal certified outcome.
	if sol.Status != lp.StatusOptimal && sol.Status != lp.StatusNodeLimit {
		t.Fatalf("status = %v", sol.Status)
	}
}

// TestConcurrencyStats sanity-checks the bookkeeping the README's
// Performance section reports.
func TestConcurrencyStats(t *testing.T) {
	m := stressModels()["assignment"]()
	sol, err := Solve(m, &Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Workers != 2 {
		t.Errorf("Workers = %d, want 2", sol.Workers)
	}
	if sol.WallTime <= 0 {
		t.Errorf("WallTime = %v, want > 0", sol.WallTime)
	}
	if sol.WorkTime <= 0 {
		t.Errorf("WorkTime = %v, want > 0", sol.WorkTime)
	}
	if sol.Nodes > 0 {
		sum := 0
		for _, n := range sol.NodesPerWorker {
			sum += n
		}
		if sum != sol.Nodes {
			t.Errorf("NodesPerWorker sums to %d, Nodes = %d", sum, sol.Nodes)
		}
		if sol.PeakQueueDepth <= 0 {
			t.Errorf("PeakQueueDepth = %d with %d nodes", sol.PeakQueueDepth, sol.Nodes)
		}
	}
}
