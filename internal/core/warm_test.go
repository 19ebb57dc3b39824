package core

import (
	"math"
	"testing"

	"github.com/etransform/etransform/internal/datagen"
	"github.com/etransform/etransform/internal/milp"
	"github.com/etransform/etransform/internal/model"
	"github.com/etransform/etransform/internal/tol"
)

// requireWarmStartsFeasible builds the DR model of s, with shared or
// dedicated pools, and requires every warmStarts() candidate to satisfy
// it at the tolerance branch & bound accepts incumbents with. No solve
// runs: an infeasible candidate is silently dropped by the solver, so
// only a direct check sees it. It returns the builder for further
// checks.
func requireWarmStartsFeasible(t *testing.T, s *model.AsIsState, candidateK int, dedicated bool) *builder {
	t.Helper()
	p, err := New(s, Options{DR: true, DedicatedBackups: dedicated, CandidateK: candidateK})
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.build(candidateK)
	if err != nil {
		t.Fatal(err)
	}
	warms := b.warmStarts()
	if len(warms) == 0 {
		t.Fatalf("%s: no warm-start candidates", b.m.Stats())
	}
	for i, w := range warms {
		if err := b.m.CheckFeasible(w, tol.Accept); err != nil {
			t.Errorf("candidate %d of %d infeasible: %v", i, len(warms), err)
		}
	}
	return b
}

// TestWarmStartProbe checks the warm starts of the full-scale
// Enterprise1 DR model, the one whose primal side leans hardest on the
// heuristic, and the quality of its cheapest heuristic point: no LP
// runs, so this is the plan a branch & bound that never improves its
// warm incumbent would return.
func TestWarmStartProbe(t *testing.T) {
	s, err := datagen.Enterprise1().Generate()
	if err != nil {
		t.Fatal(err)
	}
	b := requireWarmStartsFeasible(t, s, 0, false)
	pts := b.heuristicPoints()
	plan, err := b.planFromPoint(pts[0].placement, pts[0].secondary)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("cheapest point: cost=%.0f violations=%d backups=%d",
		plan.Cost.Total(), plan.Cost.LatencyViolations, plan.Cost.TotalBackupServers)
	if plan.Cost.Total() > 495000 {
		t.Errorf("cheapest heuristic point costs %.0f, want <= 495000", plan.Cost.Total())
	}
	// The integrated DR plan must stay in the neighbourhood the paper
	// describes: near-zero latency violations and a shared pool far below
	// the estate's 1070 servers.
	if plan.Cost.LatencyViolations > 20 {
		t.Errorf("DR plan has %d latency violations", plan.Cost.LatencyViolations)
	}
	if plan.Cost.TotalBackupServers == 0 || plan.Cost.TotalBackupServers >= 1070 {
		t.Errorf("shared pool = %d servers, want 0 < pool < 1070", plan.Cost.TotalBackupServers)
	}
}

// TestFederalDRWarmStartProbe checks warm-start generation on the
// candidate-pruned Federal ×0.25 DR model.
func TestFederalDRWarmStartProbe(t *testing.T) {
	s, err := datagen.Federal().Scaled(0.25).Generate()
	if err != nil {
		t.Fatal(err)
	}
	requireWarmStartsFeasible(t, s, 8, false)
}

// TestCappedSpaceCurvePoints checks that every point the planner encodes
// stays inside the space-curve cap on ×0.1 Enterprise1 DR, where the
// estate's servers are fewer than most DCs hold, so the segments end at
// the estate total rather than at capacity. With shared and with
// dedicated pools, the warm starts, the seed point of a SeedPlan
// re-solve from the solved plan, and CertifyPlan of that plan must all
// satisfy the capped model. A point the cap cut off would be dropped
// without a trace, which the brute-force oracle cannot see.
func TestCappedSpaceCurvePoints(t *testing.T) {
	s, err := datagen.Enterprise1().Scaled(0.1).Generate()
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for i := range s.Groups {
		total += s.Groups[i].Servers
	}
	for _, dedicated := range []bool{false, true} {
		b := requireWarmStartsFeasible(t, s, 0, dedicated)
		capped := 0
		for j, widths := range b.segWidths {
			width := 0.0
			for _, w := range widths {
				width += w
			}
			if len(widths) > 0 && s.Target.DCs[j].CapacityServers > total {
				if math.Abs(width-float64(total)) > tol.Accept {
					t.Errorf("dedicated=%v: DC %d segments cover %v, want the estate total %d", dedicated, j, width, total)
				}
				capped++
			}
		}
		if capped == 0 {
			t.Fatalf("dedicated=%v: no tiered DC holds more than the estate's %d servers; the cap never binds", dedicated, total)
		}

		opts := Options{
			DR: true, DedicatedBackups: dedicated,
			Solver: milp.Options{Workers: 1, MaxNodes: 50},
		}
		plan := solvePlan(t, s, opts)
		p, err := New(s, opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.CertifyPlan(plan); err != nil {
			t.Errorf("dedicated=%v: CertifyPlan of the solved plan: %v", dedicated, err)
		}
		if err := p.SeedPlan(plan); err != nil {
			t.Fatal(err)
		}
		sb, err := p.build(0)
		if err != nil {
			t.Fatal(err)
		}
		x, ok := sb.seedPoint()
		if !ok {
			t.Fatalf("dedicated=%v: the solved plan does not encode as a seed point", dedicated)
		}
		if err := sb.m.CheckFeasible(x, tol.Accept); err != nil {
			t.Errorf("dedicated=%v: seed point infeasible: %v", dedicated, err)
		}
		warm, err := p.Solve()
		if err != nil {
			t.Fatal(err)
		}
		if warm.Cost.Total() > plan.Cost.Total()*(1+1e-9) {
			t.Errorf("dedicated=%v: seeded re-solve costs %v, more than its seed's %v", dedicated, warm.Cost.Total(), plan.Cost.Total())
		}
	}
}
