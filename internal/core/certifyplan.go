package core

import (
	"fmt"

	"github.com/etransform/etransform/internal/certify"
	"github.com/etransform/etransform/internal/lp"
	"github.com/etransform/etransform/internal/model"
	"github.com/etransform/etransform/internal/tol"
)

// CertifyPlan independently certifies an externally produced plan —
// e.g. a per-sample optimum the robustness harness wants to promote to
// the ranked-plan list — against this planner's exact MILP: the concrete
// assignment is encoded as a full variable point (placements, backup
// pools, space-segment fills) and checked by internal/certify with the
// same tolerances every solver-produced plan passes through. It returns
// the certificate summary; an error means the plan is not feasible for
// this planner's state and options.
//
// The model is built without candidate pruning so no legal placement is
// missing a column.
func (p *Planner) CertifyPlan(plan *model.Plan) (string, error) {
	if plan == nil {
		return "", fmt.Errorf("core: nil plan")
	}
	b, err := p.build(0)
	if err != nil {
		return "", err
	}
	placement, secondary, err := p.assignmentIndices(plan)
	if err != nil {
		return "", err
	}
	x, ok := b.encodePoint(placement, secondary)
	if !ok {
		return "", fmt.Errorf("core: plan for %s cannot be encoded as a model point", b.m.Name)
	}
	sol := &lp.Solution{Status: lp.StatusFeasible, X: x, Objective: b.m.Objective(x), Gap: unknownGap}
	cert, err := certify.CheckSolution(b.m, sol, &certify.Options{FeasTol: tol.Accept, IntTol: tol.Accept})
	if err != nil {
		return "", fmt.Errorf("core: certifying plan for %s: %w", b.m.Name, err)
	}
	if cert == nil {
		return "", fmt.Errorf("core: certifier produced no certificate for %s", b.m.Name)
	}
	if err := cert.Err(); err != nil {
		return "", fmt.Errorf("core: plan for %s failed certification: %w", b.m.Name, err)
	}
	return cert.Summary(), nil
}

// assignmentIndices maps a plan's named assignments onto this state's
// indices: placement[i] is the target-DC index of group i's primary, and
// (under DR) secondary[i] of its backup site. It is the shared first half
// of both plan certification and plan-seeded re-solves; an error means
// the plan does not speak this state's group or data-center vocabulary.
func (p *Planner) assignmentIndices(plan *model.Plan) (placement, secondary []int, err error) {
	s := p.state
	placement = make([]int, len(s.Groups))
	if p.opts.DR {
		secondary = make([]int, len(s.Groups))
	}
	for i := range s.Groups {
		a := plan.AssignmentFor(s.Groups[i].ID)
		if a == nil {
			return nil, nil, fmt.Errorf("core: plan misses group %q", s.Groups[i].ID)
		}
		j := s.Target.DCIndex(a.PrimaryDC)
		if j < 0 {
			return nil, nil, fmt.Errorf("core: plan places group %q at unknown DC %q", a.GroupID, a.PrimaryDC)
		}
		placement[i] = j
		if secondary != nil {
			sj := s.Target.DCIndex(a.SecondaryDC)
			if sj < 0 {
				return nil, nil, fmt.Errorf("core: plan gives group %q unknown secondary DC %q", a.GroupID, a.SecondaryDC)
			}
			secondary[i] = sj
		}
	}
	return placement, secondary, nil
}
