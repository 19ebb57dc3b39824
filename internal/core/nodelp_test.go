package core

import (
	"testing"
	"time"

	"github.com/etransform/etransform/internal/datagen"
	"github.com/etransform/etransform/internal/milp"
	"github.com/etransform/etransform/internal/obs"
)

// TestNodeLPWarmStartsEnterprise1 is the end-to-end warm-start
// acceptance check on the seeded Enterprise1 scenario: the planner's
// branch & bound must warm-start its node LPs from parent bases —
// warm_hits > 0 in Plan.Stats.Metrics — and still ship a certified plan.
func TestNodeLPWarmStartsEnterprise1(t *testing.T) {
	// 0.25 scale matches the checked-in bench artifact and genuinely
	// branches (~100 nodes); smaller fractions solve at the root, which
	// would leave the warm path nothing to do.
	s, err := datagen.Enterprise1().Scaled(0.25).Generate()
	if err != nil {
		t.Fatal(err)
	}
	met := obs.NewMetrics()
	p, err := New(s, Options{Solver: milp.Options{
		Workers: 1, Metrics: met,
		MaxNodes: 50000, TimeLimit: 2 * time.Minute,
	}})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if plan.Stats.Certificate == "" {
		t.Fatal("plan shipped without a certificate")
	}
	if plan.Stats.Metrics == nil {
		t.Fatal("metrics snapshot missing from Plan.Stats")
	}
	if plan.Stats.Nodes < 2 {
		t.Fatalf("solved in %d nodes; the scenario no longer branches", plan.Stats.Nodes)
	}
	counters := plan.Stats.Metrics.Counters
	if hits := counters[obs.MetricSimplexWarmHits]; hits == 0 {
		t.Error("solve recorded no warm_hits in Plan.Stats.Metrics")
	}
	t.Logf("enterprise1(0.25): %d nodes, %d iters, warm_hits=%d warm_misses=%d",
		plan.Stats.Nodes, plan.Stats.Iterations,
		counters[obs.MetricSimplexWarmHits], counters[obs.MetricSimplexWarmMisses])
}
