package simplex

import (
	"context"
	"fmt"
	"math"
	"time"

	"github.com/etransform/etransform/internal/lp"
	"github.com/etransform/etransform/internal/tol"
)

// Basis is an immutable snapshot of an optimal simplex basis: the
// status of every structural and slack column plus the basic column of
// every row. It deliberately excludes two things the tableau also
// carries:
//
//   - the basis inverse — at m² floats it would dominate the branch &
//     bound queue's memory budget, and SolveFrom rebuilds it with one
//     refactorization anyway, and
//   - the artificial columns — their orientation depends on the initial
//     residuals of the solve that produced them, so a snapshot that
//     included one would not be reinstallable; Solver.Basis returns nil
//     in the (degenerate) case where an artificial is still basic.
//
// A Basis holds no reference to the tableau or model it came from: it
// can outlive both, be shared by any number of concurrent SolveFrom
// calls, and be applied to any model with the same shape (variable and
// row counts, senses, coefficients) under different bounds — which is
// exactly the parent→child relationship in branch & bound.
type Basis struct {
	n, m    int
	status  []varStatus
	basicIn []int32
}

// MemBytes returns the approximate heap footprint of the snapshot, for
// callers that meter queue memory (the branch & bound node queue charges
// each node's basis against milp.Options.MemoryBytes).
func (b *Basis) MemBytes() int64 {
	if b == nil {
		return 0
	}
	return int64(48 + cap(b.status) + 4*cap(b.basicIn))
}

// Basis returns a snapshot of the optimal basis left behind by the
// Solver's most recent solve, or nil when no warm-startable basis is
// available: the last solve did not end StatusOptimal, or an artificial
// column is still basic (possible only in degenerate cases). The
// snapshot is independent of the Solver and remains valid across its
// subsequent solves.
func (s *Solver) Basis() *Basis {
	t := &s.t
	if !t.lastOptimal {
		return nil
	}
	n, m := t.nStruct, t.m
	for r := 0; r < m; r++ {
		if int(t.basicIn[r]) >= n+m {
			return nil
		}
	}
	b := &Basis{
		n:       n,
		m:       m,
		status:  make([]varStatus, n+m),
		basicIn: make([]int32, m),
	}
	copy(b.status, t.status[:n+m])
	copy(b.basicIn, t.basicIn)
	return b
}

// ExtendRows returns a copy of the snapshot extended for a model with k
// extra rows appended after the ones it was taken from — the cut-round
// case, where each round appends freshly separated cut rows to the root
// LP. The new rows' slacks enter the basis in their own rows, so the
// extended basis matrix is block lower triangular
//
//	[ B  0 ]
//	[ C  I ]
//
// (B the old basis, C the cut-row coefficients of the old basic
// columns) and therefore nonsingular whenever B was. Because the new
// slacks carry zero cost, the old duals and reduced costs are
// unchanged: the extension is dual feasible by construction, and
// SolveFrom's dual-simplex restoration drives the (cut-violating) new
// slacks back inside their bounds — the textbook cut re-solve. Slack
// column indices survive the extension unchanged (structurals come
// first in the column layout), so old statuses copy over verbatim.
// A nil receiver or k ≤ 0 returns the receiver.
func (b *Basis) ExtendRows(k int) *Basis {
	if b == nil || k <= 0 {
		return b
	}
	nb := &Basis{
		n:       b.n,
		m:       b.m + k,
		status:  make([]varStatus, b.n+b.m+k),
		basicIn: make([]int32, b.m+k),
	}
	copy(nb.status[:b.n+b.m], b.status)
	copy(nb.basicIn[:b.m], b.basicIn)
	for i := 0; i < k; i++ {
		nb.status[b.n+b.m+i] = basic
		nb.basicIn[b.m+i] = int32(b.n + b.m + i)
	}
	return nb
}

// SolveFrom solves the continuous relaxation of model starting from an
// inherited basis instead of a cold two-phase start. The intended use
// is branch & bound: basis came from the parent node's optimal LP and
// model differs from the parent only in variable bounds, so the basis
// stays dual feasible (costs and coefficients are unchanged) and a few
// dual-simplex pivots restore primal feasibility — phase 1 is skipped
// entirely.
//
// The warm path is an optimization, never an oracle: whenever the basis
// is stale (wrong shape, invalid statuses under the child bounds,
// singular after refactorization) or dual restoration fails to reach
// primal feasibility, SolveFrom discards it and re-runs the cold
// two-phase path, so the result is exactly what Solve would have
// produced. A nil basis degrades to Solve.
//
// ctx cancels the solve as in SolveContext; a nil ctx never does.
// Branch & bound passes context.Background(): it polls its own context
// between nodes, so a canceled search surrenders its incumbent instead
// of failing on a half-pivoted node LP.
func (s *Solver) SolveFrom(ctx context.Context, model *lp.Model, basis *Basis) (*lp.Solution, error) {
	return s.solve(ctx, model, basis)
}

// solveWarm attempts the warm path from basis b on the freshly reset
// tableau. done reports that the attempt produced a final outcome
// (solution or error) and the caller must not run the cold path; done
// false means the basis was stale and the caller should restart cold.
func (t *tableau) solveWarm(b *Basis) (sol *lp.Solution, done bool, err error) {
	if !t.installBasis(b) {
		return nil, false, nil
	}
	out, err := t.dualRestore()
	if err != nil {
		return nil, true, err
	}
	switch out {
	case restoreStale:
		return nil, false, nil
	case restoreLimit:
		return &lp.Solution{Status: lp.StatusIterLimit, Iterations: t.iters, Limit: t.limit}, true, nil
	}
	t.warmHits = 1
	sol, err = t.finishPhase2()
	return sol, true, err
}

// installBasis loads snapshot b into the tableau under the *current*
// model's bounds: nonbasic columns snap to the child's (possibly
// tightened) bounds, artificials are frozen nonbasic at zero, and the
// basis inverse is rebuilt by one refactorization. It reports false —
// leaving the tableau for the caller to reset — whenever the snapshot
// cannot be a valid basis here: shape mismatch, a bound status pointing
// at an infinite bound, an inconsistent basic set, or a singular basis
// matrix.
func (t *tableau) installBasis(b *Basis) bool {
	n, m := t.nStruct, t.m
	if b == nil || b.n != n || b.m != m || len(b.status) != n+m || len(b.basicIn) != m {
		return false
	}
	for r := 0; r < m; r++ {
		a := n + m + r
		t.lower[a], t.upper[a] = 0, 0
		t.status[a] = atLower
		t.value[a] = 0
		t.inRow[a] = -1
	}
	for j := 0; j < n+m; j++ {
		st := b.status[j]
		switch st {
		case basic:
			// Membership in basicIn is validated below.
		case atLower:
			if math.IsInf(t.lower[j], -1) {
				return false
			}
			t.value[j] = t.lower[j]
		case atUpper:
			if math.IsInf(t.upper[j], 1) {
				return false
			}
			t.value[j] = t.upper[j]
		case freeAtZero:
			if !math.IsInf(t.lower[j], -1) || !math.IsInf(t.upper[j], 1) {
				return false
			}
			t.value[j] = 0
		default:
			return false
		}
		t.status[j] = st
		t.inRow[j] = -1
	}
	for r := 0; r < m; r++ {
		j := b.basicIn[r]
		if j < 0 || int(j) >= n+m || t.status[j] != basic {
			return false
		}
		if t.inRow[j] >= 0 {
			return false // duplicate basic column
		}
		t.basicIn[r] = j
		t.inRow[j] = int32(r)
	}
	for j := 0; j < n+m; j++ {
		if t.status[j] == basic && t.inRow[j] < 0 {
			return false
		}
	}
	// Rebuild the factors and the basic values from the installed basis. A
	// singular basis under the child's data means the snapshot is stale.
	if err := t.refactorize(); err != nil {
		return false
	}
	return true
}

// dualOutcome is the verdict of dualRestore.
type dualOutcome int

const (
	// restoreOK: the basis is primal feasible; phase 2 may run.
	restoreOK dualOutcome = iota
	// restoreStale: restoration failed (no eligible column, pivot cap);
	// the caller falls back to the cold path for the authoritative
	// verdict — the child LP may genuinely be infeasible.
	restoreStale
	// restoreLimit: a solve-wide limit (iterations, deadline) fired;
	// t.limit names the cause and the caller surrenders as the cold
	// path would.
	restoreLimit
)

// dualRestore runs bounded-variable dual simplex pivots until every
// basic variable is back inside its bounds. The inherited basis is dual
// feasible for the child (the cost vector and constraint matrix match
// the parent's solve exactly; only bounds moved), so the dual ratio
// test keeps reduced costs sign-correct while each pivot drives the
// most-violated basic variable to its bound. Dual feasibility is an
// efficiency argument here, not a correctness dependency: whatever
// basis restoration ends on, finishPhase2 runs primal simplex to
// proven optimality, and any failure to terminate is caught by the
// pivot cap and surrendered to the cold path.
func (t *tableau) dualRestore() (dualOutcome, error) {
	const pivTol = tol.Pivot
	m := t.m
	t.phase = 2
	t.pricedCost = t.cost
	y := t.workRow
	// A child differs from its parent by one bound, so restoration
	// should take a handful of pivots; the cap bounds the cost of a
	// degenerate or cycling case before surrendering to the cold path.
	maxPivots := 100 + 2*m
	for p := 0; p < maxPivots; p++ {
		// Leaving row: the most-violated basic bound.
		r, toLower, worst := -1, false, lp.FeasTol
		for i := 0; i < m; i++ {
			bi := t.basicIn[i]
			if v := t.lower[bi] - t.xB[i]; v > worst {
				r, toLower, worst = i, true, v
			}
			if v := t.xB[i] - t.upper[bi]; v > worst {
				r, toLower, worst = i, false, v
			}
		}
		if r < 0 {
			return restoreOK, nil
		}
		if t.iters >= t.opts.MaxIters {
			t.limit = lp.LimitIterations
			return restoreLimit, nil
		}
		if t.ctx != nil {
			if err := t.ctx.Err(); err != nil {
				return 0, fmt.Errorf("simplex: canceled after %d iterations: %w", t.iters, err)
			}
		}
		if !t.opts.Deadline.IsZero() && time.Now().After(t.opts.Deadline) {
			t.limit = lp.LimitWallClock
			return restoreLimit, nil
		}
		// Restoration can run past the eta-file cap; collapse the file on
		// the same trigger the pivot loop uses. A singular basis
		// mid-restore means the snapshot went stale.
		if t.la.etas.count() >= t.opts.refactorEvery {
			if err := t.refactorize(); err != nil {
				return restoreStale, nil
			}
		}

		bi := t.basicIn[r]
		target, leaveStatus := t.lower[bi], atLower
		if !toLower {
			target, leaveStatus = t.upper[bi], atUpper
		}
		rho := t.binvRow(r)
		t.computeDuals(y)

		// Dual ratio test: among nonbasic columns able to move xB[r]
		// toward its violated bound, pick the one whose reduced cost
		// reaches zero first (min |d|/|α|), tie-broken on the larger
		// pivot magnitude for stability.
		enter := -1
		var enterDir, enterAlpha float64
		bestRatio := math.Inf(1)
		for j := 0; j < t.nStruct+m; j++ { // artificials frozen: skip
			st := t.status[j]
			if st == basic {
				continue
			}
			if tol.Same(t.lower[j], t.upper[j]) && st != freeAtZero {
				continue // fixed
			}
			c := t.cols[j]
			alpha := 0.0
			for k, ri := range c.rows {
				alpha += rho[ri] * c.coefs[k]
			}
			if math.Abs(alpha) <= pivTol {
				continue
			}
			// Moving j by a positive step in direction dir changes xB[r]
			// by −dir·step·α; choose dir so the violated bound is
			// approached, and require j's status to permit it.
			var dir float64
			if toLower == (alpha < 0) {
				dir = 1
			} else {
				dir = -1
			}
			if (dir > 0 && st == atUpper) || (dir < 0 && st == atLower) {
				continue
			}
			d := t.reducedCost(j, y)
			ratio := math.Abs(d) / math.Abs(alpha)
			if ratio < bestRatio-tol.Tie ||
				(ratio < bestRatio+tol.Tie && (enter < 0 || math.Abs(alpha) > math.Abs(enterAlpha))) {
				bestRatio = ratio
				enter, enterDir, enterAlpha = j, dir, alpha
			}
		}
		if enter < 0 {
			// No column can repair the violation: the child LP is primal
			// infeasible, or the basis is numerically useless. The cold
			// path delivers the authoritative verdict either way.
			return restoreStale, nil
		}

		t.ftran(enter)
		w := t.workCol // w[r] equals enterAlpha: both are B⁻¹ row r · A_j

		step := (t.xB[r] - target) / (enterDir * w[r])
		if step < 0 {
			step = 0
		}
		// If the entering variable would cross its opposite bound before
		// the violated row reaches its bound, bound-flip it (basis
		// unchanged) and re-examine the row.
		if rng := t.upper[enter] - t.lower[enter]; !math.IsInf(rng, 1) && rng < step {
			t.iters++
			t.dualPivots++
			for i := 0; i < m; i++ {
				if !tol.IsZero(w[i]) {
					t.xB[i] -= enterDir * rng * w[i]
					t.value[t.basicIn[i]] = t.xB[i]
				}
			}
			if enterDir > 0 {
				t.value[enter] = t.upper[enter]
				t.status[enter] = atUpper
			} else {
				t.value[enter] = t.lower[enter]
				t.status[enter] = atLower
			}
			continue
		}

		t.iters++
		t.dualPivots++
		for i := 0; i < m; i++ {
			if !tol.IsZero(w[i]) {
				t.xB[i] -= enterDir * step * w[i]
				t.value[t.basicIn[i]] = t.xB[i]
			}
		}
		// The leaving variable exits exactly at its violated bound.
		enterVal := t.value[enter] + enterDir*step
		t.value[bi] = target
		t.status[bi] = leaveStatus
		t.inRow[bi] = -1
		t.basicIn[r] = int32(enter)
		t.inRow[enter] = int32(r)
		t.status[enter] = basic
		t.value[enter] = enterVal
		t.xB[r] = enterVal
		t.la.etas.push(r, w)
		t.etaUpdates++
	}
	return restoreStale, nil
}
