package simplex

import (
	"context"
	"fmt"

	"github.com/etransform/etransform/internal/lp"
	"github.com/etransform/etransform/internal/tol"
)

// Solver is a reusable simplex engine. It owns one scratch tableau that
// is re-initialized — not re-allocated — on every SolveFrom call, which
// removes nearly all per-solve allocation when a caller solves a long
// sequence of similarly sized models (each branch & bound worker in
// package milp owns one Solver and puts every node LP through it).
//
// A Solver is NOT safe for concurrent use: its scratch state is shared
// across calls. Give each goroutine its own Solver. Results are
// identical to the package-level Solve function — reset rebuilds the
// tableau byte-for-byte from the model, so reuse never leaks state
// between solves.
type Solver struct {
	opts Options
	t    tableau
}

// NewSolver returns a Solver applying opts (nil for defaults) to every
// subsequent SolveFrom call.
func NewSolver(opts *Options) *Solver {
	s := &Solver{}
	if opts != nil {
		s.opts = *opts
	}
	return s
}

// SolveFrom solves the continuous relaxation of model starting from an
// inherited basis instead of a cold start. The intended use is branch &
// bound: basis came from the parent node's optimal LP and model differs
// from the parent only in variable bounds, so the basis stays dual
// feasible (costs and coefficients are unchanged) and a few
// dual-simplex pivots restore primal feasibility — phase 1 is skipped
// entirely.
//
// The warm path answers only with a proof: restoration either reaches
// primal feasibility, after which phase 2 proves optimality, or stops
// on a leaving row whose B⁻¹ row is a Farkas certificate of
// infeasibility checked against the model data (provesInfeasible).
// A stale basis (wrong shape, invalid statuses under the child bounds,
// singular after refactorization) does not install, and SolveFrom
// starts from the all-slack basis instead, as Solve does; a
// restoration that gives up without a proof hands its basis to phase 1.
// A nil basis degrades to Solve.
//
// ctx cancels the solve as in SolveContext; a nil ctx never does.
// Branch & bound passes context.Background(): it polls its own context
// between nodes, so a canceled search surrenders its incumbent instead
// of failing on a half-pivoted node LP.
func (s *Solver) SolveFrom(ctx context.Context, model *lp.Model, basis *Basis) (*lp.Solution, error) {
	// The early returns below never reach reset; without this, Basis and
	// TableauView would keep describing the previous solve.
	s.t.lastOptimal = false
	if err := model.Err(); err != nil {
		return nil, fmt.Errorf("simplex: invalid model: %w", err)
	}
	if model.NumVars() == 0 {
		// Trivial: no variables. Feasible iff every row accepts 0.
		for r := 0; r < model.NumRows(); r++ {
			row := model.Row(lp.RowID(r))
			ok := false
			switch row.Sense {
			case lp.LE:
				ok = tol.Geq(row.RHS, 0, lp.FeasTol)
			case lp.GE:
				ok = tol.Leq(row.RHS, 0, lp.FeasTol)
			case lp.EQ:
				ok = tol.Eq(row.RHS, 0, lp.FeasTol)
			}
			if !ok {
				return &lp.Solution{Status: lp.StatusInfeasible}, nil
			}
		}
		return &lp.Solution{Status: lp.StatusOptimal, X: []float64{}, DualValues: make([]float64, model.NumRows())}, nil
	}
	if err := s.t.reset(model, &s.opts); err != nil {
		return nil, err
	}
	s.t.ctx = ctx
	sol, err := s.t.solve(basis)
	// Fold this solve's local counters into the metrics registry (nil-
	// safe no-op when disabled) — on error paths too, so pivot totals
	// still reconcile when a solve is injected to fail.
	s.t.foldMetrics()
	return sol, err
}

// reuseF64 returns a zeroed float64 slice of length n, reusing s's
// backing array when its capacity suffices.
func reuseF64(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}

// reuseI32 returns a zeroed int32 slice of length n, reusing s's
// backing array when its capacity suffices.
func reuseI32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}

// reuseStatus returns a zeroed varStatus slice of length n, reusing s's
// backing array when its capacity suffices.
func reuseStatus(s []varStatus, n int) []varStatus {
	if cap(s) < n {
		return make([]varStatus, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}
