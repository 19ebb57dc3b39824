package core

import (
	"strings"
	"testing"

	"github.com/etransform/etransform/internal/datagen"
	"github.com/etransform/etransform/internal/model"
)

// TestSeedPlanWarmResolveMatchesCold is the warm re-planning contract:
// seeding a planner with a previous optimal plan must not change the
// answer — the seeded solve proves the same certified cost (and here the
// identical assignment) the cold solve found, just starting from a
// better incumbent.
func TestSeedPlanWarmResolveMatchesCold(t *testing.T) {
	s, err := datagen.Enterprise1().Scaled(0.12).Generate()
	if err != nil {
		t.Fatal(err)
	}
	cold := solvePlan(t, s, Options{})

	p, err := New(s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.SeedPlan(cold); err != nil {
		t.Fatal(err)
	}
	warm, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if warm.Cost.Total() != cold.Cost.Total() {
		t.Fatalf("warm total %v != cold total %v", warm.Cost.Total(), cold.Cost.Total())
	}
	if len(warm.Assignments) != len(cold.Assignments) {
		t.Fatalf("%d warm assignments, %d cold", len(warm.Assignments), len(cold.Assignments))
	}
	if warm.Stats.Degradation != nil {
		t.Fatalf("seeded solve degraded: %+v", warm.Stats.Degradation)
	}
}

// TestSeedPlanDRResolve covers the pair-formulation DR path, where the
// seed must encode a (primary, secondary, pool) point.
func TestSeedPlanDRResolve(t *testing.T) {
	s := twoDCState(t, 0)
	cold := solvePlan(t, s, Options{DR: true})

	p, err := New(s, Options{DR: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.SeedPlan(cold); err != nil {
		t.Fatal(err)
	}
	warm, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if warm.Cost.Total() != cold.Cost.Total() {
		t.Fatalf("warm DR total %v != cold %v", warm.Cost.Total(), cold.Cost.Total())
	}
}

// TestSeedPlanVocabularyErrors pins where bad seeds surface: at
// registration, naming the offending group or data center — not
// mid-solve.
func TestSeedPlanVocabularyErrors(t *testing.T) {
	s := twoDCState(t, 0)
	plan := solvePlan(t, s, Options{})

	p, err := New(s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	missing := &model.Plan{Assignments: plan.Assignments[:1]}
	if err := p.SeedPlan(missing); err == nil || !strings.Contains(err.Error(), "misses group") {
		t.Fatalf("missing-group seed error = %v", err)
	}
	bad := &model.Plan{Assignments: append([]model.Assignment(nil), plan.Assignments...)}
	bad.Assignments[0].PrimaryDC = "nowhere"
	if err := p.SeedPlan(bad); err == nil || !strings.Contains(err.Error(), "unknown DC") {
		t.Fatalf("unknown-DC seed error = %v", err)
	}

	// A failed registration leaves no stale seed behind; clearing works.
	if err := p.SeedPlan(plan); err != nil {
		t.Fatal(err)
	}
	if err := p.SeedPlan(nil); err != nil {
		t.Fatal(err)
	}
	if p.seedPlacement != nil || p.seedSecondary != nil {
		t.Fatal("SeedPlan(nil) did not clear the seed")
	}
	if _, err := p.Solve(); err != nil {
		t.Fatal(err)
	}
}
