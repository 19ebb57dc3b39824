package milp

import (
	"math/rand"
	"testing"

	"github.com/etransform/etransform/internal/lp"
	"github.com/etransform/etransform/internal/resilience/faultinject"
	"github.com/etransform/etransform/internal/tol"
)

// randomGapModel builds a random multi-row binary knapsack with
// fractional profits and rows at half their total weight, so that many
// integer points lie within a small relative gap of the optimum and a
// loose GapTol closes the tree by tolerance pruning rather than by
// proof.
func randomGapModel(rng *rand.Rand) *lp.Model {
	m := lp.NewModel("gap-prop")
	n, rows := 12+rng.Intn(10), 2+rng.Intn(2)
	terms := make([][]lp.Term, rows)
	weight := make([]int, rows)
	for j := 0; j < n; j++ {
		v := m.AddBinary("", -(20 + 30*rng.Float64()))
		for r := range terms {
			c := 1 + rng.Intn(20)
			weight[r] += c
			terms[r] = append(terms[r], lp.Term{Var: v, Coef: float64(c)})
		}
	}
	for r := range terms {
		m.AddRow("", terms[r], lp.LE, float64(weight[r]/2))
	}
	return m
}

// TestReportedGapCoversTrueGap is the honest-gap property: a solve at
// GapTol 5e-3 must report a gap at least as large as its incumbent's
// true relative gap to the optimum of a GapTol 1e-12 re-solve. A search
// that discards nodes within tolerance of the incumbent without keeping
// their bound reports gap 0 on the seeds where the loose solve stopped
// short of the optimum.
func TestReportedGapCoversTrueGap(t *testing.T) {
	const loose, seeds = 5e-3, 60
	short := 0
	for _, workers := range []int{1, 4} {
		for seed := int64(1); seed <= seeds; seed++ {
			m := randomGapModel(rand.New(rand.NewSource(seed)))
			sol, err := Solve(m, &Options{GapTol: loose, Workers: workers})
			if err != nil {
				t.Fatalf("seed %d workers %d: %v", seed, workers, err)
			}
			exact, err := Solve(m, &Options{GapTol: 1e-12, Workers: 1})
			if err != nil {
				t.Fatalf("seed %d exact: %v", seed, err)
			}
			if sol.Status != lp.StatusOptimal || exact.Status != lp.StatusOptimal {
				t.Fatalf("seed %d workers %d: status %v / exact %v, want optimal", seed, workers, sol.Status, exact.Status)
			}
			trueGap := tol.RelGap(sol.Objective, exact.Objective)
			if trueGap > 1e-12 {
				short++
			}
			if sol.Gap < trueGap-1e-12 {
				t.Errorf("seed %d workers %d: reported gap %.3g below true gap %.3g (objective %.6f, optimum %.6f)",
					seed, workers, sol.Gap, trueGap, sol.Objective, exact.Objective)
			}
		}
	}
	if short == 0 {
		t.Fatal("every loose solve found the optimum; the property is vacuous")
	}
	t.Logf("%d of %d loose solves stopped short of the optimum", short, 2*seeds)
}

// TestNodeLPStallKeepsBound is the honest-gap property for a node LP
// that stops at its iteration limit: the subtree under that node is
// unexplored, so its bound must stay in the reported bound and the
// solve must end at the limit, never as optimal. A persistent stall is
// swept over every pivot of each solve (cuts and diving off, so the
// tree is the only place it can land after the root). Seeds 18–22 hold
// both failure modes of a bound taken after the node left flight:
// seeds 18, 19, 21 and 22 end optimal with no limit at some
// offsets, and seed 20 at offset 83 reports a gap of 0.00537 against a
// true gap of 0.00638.
func TestNodeLPStallKeepsBound(t *testing.T) {
	base := Options{GapTol: 1e-12, Workers: 1, disableCuts: true, disableDiving: true}
	inTree := 0
	for seed := int64(18); seed <= 22; seed++ {
		m := randomGapModel(rand.New(rand.NewSource(seed)))
		clean := solveOrFatal(t, m, &base)
		for after := 1; after <= clean.Iterations; after++ {
			opts := base
			inj := faultinject.New(1, faultinject.Fault{Kind: faultinject.KindStall, After: after, Count: -1})
			opts.Inject = inj
			sol := solveOrFatal(t, m, &opts)
			if !inj.Fired(faultinject.KindStall) || sol.Status == lp.StatusIterLimit {
				continue // the stall missed the solve or landed in the root LP
			}
			inTree++
			if sol.Status != lp.StatusNodeLimit || sol.Limit != lp.LimitIterations {
				t.Fatalf("seed %d stall at %d: (%v, %q), want (%v, %q)",
					seed, after, sol.Status, sol.Limit, lp.StatusNodeLimit, lp.LimitIterations)
			}
			if trueGap := tol.RelGap(sol.Objective, clean.Objective); sol.Gap < trueGap-1e-12 {
				t.Fatalf("seed %d stall at %d: reported gap %.3g below true gap %.3g",
					seed, after, sol.Gap, trueGap)
			}
		}
	}
	if inTree == 0 {
		t.Fatal("no stall landed in the tree; the property is vacuous")
	}
}
