package core

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"github.com/etransform/etransform/internal/baseline"
	"github.com/etransform/etransform/internal/lp"
	"github.com/etransform/etransform/internal/model"
	"github.com/etransform/etransform/internal/resilience/faultinject"
	"github.com/etransform/etransform/internal/tol"
)

// TestCleanSolveCarriesNoDegradation: the fault-free path must be
// indistinguishable from a plain exact solve — no report, identical
// output across runs.
func TestCleanSolveCarriesNoDegradation(t *testing.T) {
	var blobs [][]byte
	for run := 0; run < 2; run++ {
		plan := solvePlan(t, twoDCState(t, 1000), Options{})
		if plan.Stats.Degradation != nil {
			t.Fatalf("clean solve attached a degradation report: %+v", plan.Stats.Degradation)
		}
		b, err := json.Marshal(plan)
		if err != nil {
			t.Fatal(err)
		}
		blobs = append(blobs, b)
	}
	if string(blobs[0]) != string(blobs[1]) {
		t.Error("clean solves are not bit-identical across runs")
	}
}

// TestRetryWithPerturbationRecovers: a fault that fires exactly once
// kills the first exact attempt; the perturbed retry must deliver the
// optimal plan, with the failure on record and Degraded still false.
func TestRetryWithPerturbationRecovers(t *testing.T) {
	s := twoDCState(t, 1000)
	clean := solvePlan(t, s, Options{})
	opts := Options{}
	opts.Solver.Inject = faultinject.New(1, faultinject.Fault{Kind: faultinject.KindPivot})
	plan := solvePlan(t, twoDCState(t, 1000), opts)
	d := plan.Stats.Degradation
	if d == nil {
		t.Fatal("retry-recovered solve lost its attempt log")
	}
	if d.Degraded {
		t.Errorf("retry reached the exact optimum; Degraded should be false: %+v", d)
	}
	if d.Stage != lp.StageExact || d.StageIndex != 1 {
		t.Errorf("stage = %q/%d, want exact-milp/1", d.Stage, d.StageIndex)
	}
	if len(d.Attempts) != 2 || d.Attempts[0].Outcome != "failed" || d.Attempts[1].Outcome != "ok" {
		t.Fatalf("attempt log = %+v, want [failed, ok]", d.Attempts)
	}
	if !strings.Contains(d.Attempts[0].Error, "injected pivot failure") {
		t.Errorf("first attempt error = %q, want the injected pivot failure", d.Attempts[0].Error)
	}
	if plan.Cost.Total() != clean.Cost.Total() {
		t.Errorf("retry plan costs %v, clean plan %v", plan.Cost.Total(), clean.Cost.Total())
	}
}

// TestFallbackToRoundingOnPersistentExactFailure: a pivot fault that
// fires twice fails the first pivot of both exact attempts; the
// LP-rounding stage must deliver a certified feasible plan naming the
// stage and the cause.
func TestFallbackToRoundingOnPersistentExactFailure(t *testing.T) {
	opts := Options{}
	opts.Solver.Inject = faultinject.New(1, faultinject.Fault{Kind: faultinject.KindPivot, Count: 2})
	plan := solvePlan(t, twoDCState(t, 1000), opts)
	d := plan.Stats.Degradation
	if d == nil || !d.Degraded {
		t.Fatalf("fallback plan must be marked degraded: %+v", d)
	}
	if d.Stage != lp.StageRounding || d.StageIndex != 2 {
		t.Fatalf("stage = %q/%d, want lp-rounding/2", d.Stage, d.StageIndex)
	}
	if !strings.Contains(d.Reason, "injected pivot failure") {
		t.Errorf("reason %q does not name the exact-stage failure", d.Reason)
	}
	if len(d.Attempts) != 3 {
		t.Fatalf("attempt log = %+v, want 2 exact failures + 1 rounding ok", d.Attempts)
	}
	if plan.Stats.Certificate == "" {
		t.Error("fallback plan was not certified")
	}
	if _, err := model.EvaluatePlan(twoDCState(t, 1000), plan); err != nil {
		t.Errorf("fallback plan fails evaluation: %v", err)
	}
	if _, err := json.Marshal(plan); err != nil {
		t.Errorf("degraded plan does not survive JSON: %v", err)
	}
}

// TestFallbackCascadesToGreedy: a persistent pivot failure or corrupted
// simplex result, armed through Solver.Inject like the CLIs' -faults,
// kills the exact stage and the rounding stage's relaxation; the LP-free
// greedy stage must still deliver a certified plan.
func TestFallbackCascadesToGreedy(t *testing.T) {
	for _, kind := range []faultinject.Kind{faultinject.KindPivot, faultinject.KindCorrupt} {
		t.Run(kind.String(), func(t *testing.T) {
			opts := Options{}
			opts.Solver.Inject = faultinject.New(1, faultinject.Fault{Kind: kind, Count: -1})
			plan := solvePlan(t, twoDCState(t, 1000), opts)
			d := plan.Stats.Degradation
			if d == nil || !d.Degraded {
				t.Fatalf("greedy fallback plan must be marked degraded: %+v", d)
			}
			if d.Stage != lp.StageGreedy || d.StageIndex != 3 {
				t.Fatalf("stage = %q/%d, want greedy/3", d.Stage, d.StageIndex)
			}
			var stages []string
			for _, a := range d.Attempts {
				stages = append(stages, a.Stage+":"+a.Outcome)
			}
			got := strings.Join(stages, ",")
			want := "exact-milp:failed,exact-milp:failed,lp-rounding:failed,greedy:ok"
			if got != want {
				t.Errorf("attempt log %q, want %q", got, want)
			}
			if plan.Stats.Certificate == "" {
				t.Error("greedy fallback plan was not certified")
			}
		})
	}
}

// TestGreedyStageHonoursPins: the pin moves group 0 off the site the
// §VI-B greedy baseline (baseline.Greedy) gives it, and stage 3's plan,
// the cheapest warm start, must honour the pin and, under DR, give every
// group a distinct secondary and a backup pool.
func TestGreedyStageHonoursPins(t *testing.T) {
	for _, dr := range []bool{false, true} {
		for seed := int64(1); seed <= 20; seed++ {
			t.Run(fmt.Sprintf("dr=%v/seed=%d", dr, seed), func(t *testing.T) {
				s := randomState(rand.New(rand.NewSource(seed)), 8, 3, 2, dr)
				greedy, err := baseline.Greedy(s, baseline.GreedyOptions{DR: dr})
				if err != nil {
					t.Fatal(err)
				}
				group := s.Groups[0].ID
				pin := ""
				for _, dc := range s.Target.DCs {
					if dc.ID != greedy.AssignmentFor(group).PrimaryDC {
						pin = dc.ID
						break
					}
				}
				opts := Options{DR: dr}
				opts.Solver.Inject = faultinject.New(1, faultinject.Fault{Kind: faultinject.KindCorrupt, Count: -1})
				p, err := New(s, opts)
				if err != nil {
					t.Fatal(err)
				}
				if err := p.Pin(group, pin); err != nil {
					t.Fatal(err)
				}
				plan, err := p.Solve()
				if err != nil {
					t.Fatal(err)
				}
				if d := plan.Stats.Degradation; d == nil || d.Stage != lp.StageGreedy || d.StageIndex != 3 {
					t.Fatalf("degradation = %+v, want greedy/3", d)
				}
				if got := plan.AssignmentFor(group).PrimaryDC; got != pin {
					t.Errorf("pinned group %s placed at %s, want %s", group, got, pin)
				}
				if plan.Stats.Certificate == "" {
					t.Error("greedy-stage plan was not certified")
				}
				if _, err := model.EvaluatePlan(s, plan); err != nil {
					t.Errorf("greedy-stage plan fails evaluation: %v", err)
				}
				if !dr {
					return
				}
				for _, a := range plan.Assignments {
					if a.SecondaryDC == "" || a.SecondaryDC == a.PrimaryDC {
						t.Fatalf("assignment %+v lacks a distinct secondary", a)
					}
				}
				if len(plan.BackupServers) == 0 {
					t.Error("DR greedy-stage plan has no backup pools")
				}
			})
		}
	}
}

// TestGreedyStageReturnsCheapestWarmStart: with every simplex result
// corrupted, stage 3 must deliver a plan as cheap as the cheapest warm
// start the MILP accepts, on random estates with and without DR.
func TestGreedyStageReturnsCheapestWarmStart(t *testing.T) {
	shapes := [][3]int{{8, 3, 2}, {12, 4, 3}, {20, 6, 3}}
	for _, dr := range []bool{false, true} {
		for _, sh := range shapes {
			for seed := int64(1); seed <= 10; seed++ {
				s := randomState(rand.New(rand.NewSource(seed)), sh[0], sh[1], sh[2], dr)
				opts := Options{DR: dr}
				opts.Solver.Inject = faultinject.New(1, faultinject.Fault{Kind: faultinject.KindCorrupt, Count: -1})
				p, err := New(s, opts)
				if err != nil {
					t.Fatal(err)
				}
				b, err := p.build(0)
				if err != nil {
					t.Fatal(err)
				}
				cheapest := math.Inf(1)
				for _, x := range b.warmStarts() {
					if b.m.CheckFeasible(x, tol.Accept) == nil {
						cheapest = math.Min(cheapest, b.m.Objective(x))
					}
				}
				plan, err := p.Solve()
				if err != nil {
					t.Fatalf("dr=%v shape %v seed %d: %v", dr, sh, seed, err)
				}
				if d := plan.Stats.Degradation; d == nil || d.Stage != lp.StageGreedy || d.StageIndex != 3 {
					t.Fatalf("dr=%v shape %v seed %d: degradation = %+v, want greedy/3", dr, sh, seed, d)
				}
				if got := plan.Cost.Total(); math.Abs(got-cheapest) > 1e-6*math.Max(1, cheapest) {
					t.Errorf("dr=%v shape %v seed %d: stage-3 plan costs %.2f, cheapest warm start %.2f",
						dr, sh, seed, got, cheapest)
				}
			}
		}
	}
}

// TestDegradedBudgetSurrendersIncumbent: an expired wall budget makes
// the exact stage surrender its warm-start incumbent as a certified
// degraded plan, with the limit named and the gap JSON-safe.
func TestDegradedBudgetSurrendersIncumbent(t *testing.T) {
	opts := Options{}
	opts.Solver.TimeLimit = time.Nanosecond
	plan := solvePlan(t, twoDCState(t, 1000), opts)
	d := plan.Stats.Degradation
	if d == nil || !d.Degraded {
		t.Fatalf("budget-limited plan must be marked degraded: %+v", d)
	}
	if d.Stage != lp.StageExact {
		t.Fatalf("stage = %q, want exact-milp (surrendered incumbent)", d.Stage)
	}
	if d.Limit != lp.LimitWallClock {
		t.Errorf("Limit = %q, want %q", d.Limit, lp.LimitWallClock)
	}
	if plan.Stats.Gap > 0 || plan.Stats.Gap < -1 {
		t.Errorf("Stats.Gap = %v, want a finite value in [-1, 0]", plan.Stats.Gap)
	}
	if _, err := json.Marshal(plan); err != nil {
		t.Errorf("degraded plan does not survive JSON: %v", err)
	}
	if plan.Stats.Certificate == "" {
		t.Error("surrendered incumbent was not certified")
	}
}

// TestFallbackDRToRounding: a pivot fault that defeats both exact
// attempts on a DR model sends the solve to the LP-rounding stage, whose
// certified plan must give every group a distinct secondary and size the
// backup pools.
func TestFallbackDRToRounding(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := randomState(rng, 8, 3, 2, true)
	opts := Options{DR: true}
	opts.Solver.Inject = faultinject.New(1, faultinject.Fault{Kind: faultinject.KindPivot, Count: 2})
	plan := solvePlan(t, s, opts)
	d := plan.Stats.Degradation
	if d == nil || !d.Degraded || d.Stage != lp.StageRounding {
		t.Fatalf("degradation = %+v, want lp-rounding fallback", d)
	}
	if plan.Stats.Formulation != "pair" {
		t.Errorf("fallback formulation = %q, want pair", plan.Stats.Formulation)
	}
	if plan.Stats.Certificate == "" {
		t.Error("fallback plan was not certified")
	}
	if _, err := model.EvaluatePlan(s, plan); err != nil {
		t.Errorf("fallback plan fails evaluation: %v", err)
	}
	for _, a := range plan.Assignments {
		if a.SecondaryDC == "" || a.SecondaryDC == a.PrimaryDC {
			t.Fatalf("assignment %+v lacks a distinct secondary", a)
		}
	}
	if len(plan.BackupServers) == 0 {
		t.Error("DR fallback plan has no backup pools")
	}
}
