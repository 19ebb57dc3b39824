package core

import (
	"math"
	"testing"
	"time"

	"github.com/etransform/etransform/internal/datagen"
	"github.com/etransform/etransform/internal/milp"
	"github.com/etransform/etransform/internal/milp/cuts"
)

// TestCutsEquivalenceScenarios is the end-to-end safety suite for the
// root cutting planes: on four bundled case-study scenarios (aggregated
// integer counts, DR pair columns, shared backup pools), every
// combination of {cuts off/on} × {workers 1, 4} must certify the
// identical objective. Cuts may only tighten the dual bound — any drift
// in the certified optimum means a cut deleted a feasible point.
func TestCutsEquivalenceScenarios(t *testing.T) {
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
		for _, enableCuts := range []bool{false, true} {
			for _, workers := range []int{1, 4} {
				p, err := New(s, Options{
					DR: sc.dr,
					// GapTol 1e-12 asks for proof: at the default
					// tolerance a solve may stop with a nonzero, honestly
					// reported gap.
					Solver: milp.Options{
						GapTol:    1e-12,
						Workers:   workers,
						MaxNodes:  50000,
						TimeLimit: 2 * time.Minute,
						Cuts:      cuts.Options{Enable: enableCuts},
					},
				})
				if err != nil {
					t.Fatalf("%s: New: %v", sc.name, err)
				}
				plan, err := p.Solve()
				if err != nil {
					t.Fatalf("%s cuts=%v w=%d: %v", sc.name, enableCuts, workers, err)
				}
				if plan.Stats.Certificate == "" {
					t.Fatalf("%s cuts=%v w=%d: no certificate", sc.name, enableCuts, workers)
				}
				if plan.Stats.Gap > 1e-9 {
					t.Fatalf("%s cuts=%v w=%d: not proven optimal (gap %v)",
						sc.name, enableCuts, workers, plan.Stats.Gap)
				}
				total := plan.Cost.Total()
				if !haveRef {
					ref, haveRef = total, true
					continue
				}
				if d := math.Abs(total - ref); d > 1e-6*math.Max(1, math.Abs(ref)) {
					t.Errorf("%s cuts=%v w=%d: certified %v, want %v (diff %g)",
						sc.name, enableCuts, workers, total, ref, d)
				}
			}
		}
	}
}
