package milp_test

import (
	"math"
	"testing"
	"time"

	"github.com/etransform/etransform/internal/certify"
	"github.com/etransform/etransform/internal/core"
	"github.com/etransform/etransform/internal/datagen"
	"github.com/etransform/etransform/internal/milp"
)

// TestCutsEquivalenceScenarios is the end-to-end safety suite for the
// root cutting planes: on the planner's models of four bundled
// case-study scenarios (aggregated integer counts, DR pair columns,
// shared backup pools), every combination of {cuts off, default} ×
// {workers 1, 4} must prove the identical optimum. Cuts may only
// tighten the dual bound — any drift in the proven optimum means a cut
// deleted a feasible point.
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
		p, err := core.New(s, core.Options{DR: sc.dr})
		if err != nil {
			t.Fatalf("%s: New: %v", sc.name, err)
		}
		m, err := p.BuildModel()
		if err != nil {
			t.Fatalf("%s: BuildModel: %v", sc.name, err)
		}
		var ref float64
		haveRef := false
		for _, cuts := range []bool{false, true} {
			for _, workers := range []int{1, 4} {
				// GapTol 1e-12 asks for proof: at the default tolerance a
				// solve may stop with a nonzero, honestly reported gap.
				opts := milp.Options{GapTol: 1e-12, Workers: workers, MaxNodes: 50000, TimeLimit: 2 * time.Minute}
				if !cuts {
					opts = milp.WithoutCuts(opts)
				}
				sol, err := milp.Solve(m, &opts)
				if err != nil {
					t.Fatalf("%s cuts=%v w=%d: %v", sc.name, cuts, workers, err)
				}
				cert, err := certify.CheckSolution(m, sol, nil)
				if err != nil || cert == nil || cert.Err() != nil {
					t.Fatalf("%s cuts=%v w=%d: status %v, certificate %v, %v", sc.name, cuts, workers, sol.Status, cert, err)
				}
				if sol.Gap > 1e-9 {
					t.Fatalf("%s cuts=%v w=%d: not proven optimal (gap %v)", sc.name, cuts, workers, sol.Gap)
				}
				if !haveRef {
					ref, haveRef = sol.Objective, true
					continue
				}
				if d := math.Abs(sol.Objective - ref); d > 1e-6*math.Max(1, math.Abs(ref)) {
					t.Errorf("%s cuts=%v w=%d: proved %v, want %v (diff %g)",
						sc.name, cuts, workers, sol.Objective, ref, d)
				}
			}
		}
	}
}
