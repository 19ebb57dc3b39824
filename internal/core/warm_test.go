package core

import (
	"testing"

	"github.com/etransform/etransform/internal/datagen"
	"github.com/etransform/etransform/internal/model"
	"github.com/etransform/etransform/internal/tol"
)

// requireWarmStartsFeasible builds the DR model of s and requires every
// warmStarts() candidate to satisfy it at the tolerance branch & bound
// accepts incumbents with. No solve runs: an infeasible candidate is
// silently dropped by the solver, so only a direct check sees it. It
// returns the builder for further checks.
func requireWarmStartsFeasible(t *testing.T, s *model.AsIsState, candidateK int) *builder {
	t.Helper()
	p, err := New(s, Options{DR: true, Aggregate: true, CandidateK: candidateK})
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
	b := requireWarmStartsFeasible(t, s, 0)
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
	requireWarmStartsFeasible(t, s, 8)
}
