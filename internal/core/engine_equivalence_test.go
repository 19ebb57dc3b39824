package core

import (
	"math"
	"testing"
	"time"

	"github.com/etransform/etransform/internal/datagen"
	"github.com/etransform/etransform/internal/milp"
	"github.com/etransform/etransform/internal/simplex"
)

// TestDenseSparseEquivalenceScenarios is the end-to-end half of the
// dense-vs-sparse equivalence suite: bundled case-study scenarios are
// planned through both simplex linear-algebra backends at workers 1
// and 4, and every combination must certify the same objective. The random-LP half lives in
// internal/simplex; this half is what ties the engines' agreement to the
// paper's actual models (aggregated integer counts, DR pair columns,
// shared backup pools).
func TestDenseSparseEquivalenceScenarios(t *testing.T) {
	// Scales are chosen so every combination solves to proven optimality
	// (gap 0) in well under a second per solve — the comparison is only
	// meaningful between certified optima, and the full matrix runs 16
	// planner solves under -race in CI.
	scenarios := []struct {
		name string
		cfg  datagen.CaseStudyConfig
		dr   bool
	}{
		{"enterprise1", datagen.Enterprise1().Scaled(0.25), false},
		{"enterprise1-dr", datagen.Enterprise1().Scaled(0.25), true},
		{"florida", datagen.Florida().Scaled(0.1), false},
		{"federal", datagen.Federal().Scaled(0.01), false},
	}
	for _, sc := range scenarios {
		s, err := sc.cfg.Generate()
		if err != nil {
			t.Fatalf("%s: generate: %v", sc.name, err)
		}
		var ref float64
		haveRef := false
		for _, workers := range []int{1, 4} {
			for _, dense := range []bool{false, true} {
				p, err := New(s, Options{
					Aggregate: true,
					DR:        sc.dr,
					Solver: milp.Options{
						Workers:   workers,
						MaxNodes:  50000,
						TimeLimit: 2 * time.Minute,
						Simplex:   simplex.Options{DenseLA: dense},
					},
				})
				if err != nil {
					t.Fatalf("%s: New: %v", sc.name, err)
				}
				plan, err := p.Solve()
				if err != nil {
					t.Fatalf("%s w=%d dense=%v: %v", sc.name, workers, dense, err)
				}
				if plan.Stats.Certificate == "" {
					t.Fatalf("%s w=%d dense=%v: no certificate", sc.name, workers, dense)
				}
				total := plan.Cost.Total()
				if !haveRef {
					ref, haveRef = total, true
					continue
				}
				if d := math.Abs(total - ref); d > 1e-6*math.Max(1, math.Abs(ref)) {
					t.Errorf("%s w=%d dense=%v: certified %v, want %v (diff %g)",
						sc.name, workers, dense, total, ref, d)
				}
			}
		}
	}
}
