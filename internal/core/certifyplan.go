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
	placement, secondary, err := model.PlanIndices(p.state, plan, p.opts.DR)
	if err != nil {
		return "", err
	}
	certified, err := b.planFromPoint(placement, secondary)
	if err != nil {
		return "", err
	}
	return certified.Stats.Certificate, nil
}
