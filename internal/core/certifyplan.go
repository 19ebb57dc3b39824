package core

import (
	"fmt"

	"github.com/etransform/etransform/internal/model"
)

// CertifyPlan independently certifies an externally produced plan —
// e.g. a per-sample optimum the robustness harness wants to promote to
// the ranked-plan list — against this planner's exact MILP: the concrete
// assignment goes through planFromPoint, the encode, certify and decode
// path every fallback plan takes, so it is checked by internal/certify
// with the same tolerances every solver-produced plan passes through. It
// returns the certificate summary; an error means the plan is not
// feasible for this planner's state and options.
//
// The model is built without candidate pruning so no legal placement is
// missing a column.
func (p *Planner) CertifyPlan(plan *model.Plan) (string, error) {
	if plan == nil {
		return "", fmt.Errorf("core: nil plan")
	}
	// Only the certificate is wanted, not the shadow-price LP that
	// decoding the plan would otherwise solve.
	q := *p
	q.opts.ComputeShadowPrices = false
	b, err := q.build(0)
	if err != nil {
		return "", err
	}
	placement, secondary, err := p.assignmentIndices(plan)
	if err != nil {
		return "", err
	}
	certified, err := b.planFromPoint(placement, secondary)
	if err != nil {
		return "", err
	}
	return certified.Stats.Certificate, nil
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
