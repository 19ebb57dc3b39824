package simplex

import (
	"context"
	"fmt"
	"math"
	"time"

	"github.com/etransform/etransform/internal/lp"
	"github.com/etransform/etransform/internal/resilience/faultinject"
	"github.com/etransform/etransform/internal/tol"
)

// Basis is an immutable snapshot of an optimal simplex basis: the
// status of every structural and slack column, which are all the
// columns the tableau has, plus the basic column of every row. It
// deliberately excludes the basis inverse: at m² floats it would
// dominate the branch & bound queue's memory budget, and SolveFrom
// rebuilds it with one refactorization anyway.
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
// Solver's most recent solve, or nil when the last solve did not end
// StatusOptimal. The snapshot is independent of the Solver and remains
// valid across its subsequent solves.
func (s *Solver) Basis() *Basis {
	t := &s.t
	if !t.lastOptimal {
		return nil
	}
	n, m := t.nStruct, t.m
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

// DropRows returns a copy of the snapshot for the model with the given
// rows removed, the inverse of ExtendRows: the cut-pool case, where
// cuts retired by activity aging leave the root model. Each dropped
// row's slack must be basic, and it leaves the basis with its row.
// Expanding det(B) along that slack's unit column shows the trimmed
// basis matrix is nonsingular whenever B was, and a basic zero-cost
// slack has a zero dual, so the remaining duals and reduced costs are
// unchanged: an optimal basis stays optimal for the trimmed model.
// Later slacks shift down to their rows' new indices, and the basic
// columns keep their order. DropRows returns nil when a dropped slack
// is nonbasic (its row may bind, and no such identity holds) or a row
// is out of range. A nil receiver or an empty rows returns the
// receiver.
func (b *Basis) DropRows(rows []int) *Basis {
	if b == nil || len(rows) == 0 {
		return b
	}
	// newSlack[r] is the new column of row r's slack, -1 when dropped.
	newSlack := make([]int32, b.m)
	for _, r := range rows {
		if r < 0 || r >= b.m || b.status[b.n+r] != basic {
			return nil
		}
		newSlack[r] = -1
	}
	nb := &Basis{n: b.n, status: make([]varStatus, b.n, b.n+b.m)}
	copy(nb.status, b.status[:b.n])
	for r := range newSlack {
		if newSlack[r] < 0 {
			continue
		}
		newSlack[r] = int32(b.n + nb.m)
		nb.status = append(nb.status, b.status[b.n+r])
		nb.m++
	}
	nb.basicIn = make([]int32, 0, nb.m)
	for _, j := range b.basicIn {
		if int(j) >= b.n {
			if j = newSlack[int(j)-b.n]; j < 0 {
				continue
			}
		}
		nb.basicIn = append(nb.basicIn, j)
	}
	return nb
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
	return s.solve(ctx, model, basis)
}

// slackBasis returns the all-slack basis of the freshly reset tableau
// and whether it is dual feasible. With every slack basic the duals are
// zero and each structural's reduced cost is its cost, so a column with
// positive cost rests at its finite lower bound, one with negative cost
// at its finite upper bound, and a zero-cost column wherever
// initialStatus puts it. A nonzero-cost column without the bound its
// sign needs (a negative cost unbounded above, a positive cost
// unbounded below, a free column) rests where initialStatus puts it
// and makes the basis dual infeasible, so the solve skips dual
// restoration. The returned Basis is tableau scratch, valid until the
// next call.
func (t *tableau) slackBasis() (*Basis, bool) {
	n, m := t.nStruct, t.m
	b := &t.slack
	b.n, b.m = n, m
	b.status = reuseStatus(b.status, n+m)
	b.basicIn = reuseI32(b.basicIn, m)
	dualFeasible := true
	for j := 0; j < n; j++ {
		lo, hi, c := t.lower[j], t.upper[j], t.cost[j]
		switch {
		case c > 0 && !math.IsInf(lo, -1):
			b.status[j] = atLower
		case c < 0 && !math.IsInf(hi, 1):
			b.status[j] = atUpper
		default:
			b.status[j] = initialStatus(lo, hi)
			dualFeasible = dualFeasible && tol.IsZero(c)
		}
	}
	for r := 0; r < m; r++ {
		b.status[n+r] = basic
		b.basicIn[r] = int32(n + r)
	}
	return b, dualFeasible
}

// installBasis loads snapshot b into the tableau under the *current*
// model's bounds: nonbasic columns snap to the child's (possibly
// tightened) bounds, and the basis inverse is rebuilt by one
// refactorization. It reports false whenever b is nil or cannot be a
// valid basis here: shape mismatch, a bound status pointing at an
// infinite bound, an inconsistent basic set, or a singular basis
// matrix. A failed install leaves the tableau for the next install to
// overwrite.
func (t *tableau) installBasis(b *Basis) bool {
	n, m := t.nStruct, t.m
	if b == nil || b.n != n || b.m != m || len(b.status) != n+m || len(b.basicIn) != m {
		return false
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
	// restoreInfeasible: a leaving row found no entering column and its
	// row of B⁻¹ passed provesInfeasible, so the LP is infeasible; the
	// solve returns that verdict itself.
	restoreInfeasible
	// restoreStale: restoration gave up (no entering column without a
	// certificate, or the dual-degenerate guard); phase 1 takes over
	// from the basis restoration ended on.
	restoreStale
	// restoreLimit: a solve-wide limit (iterations, deadline) or an
	// injected stall fired; t.limit names the cause and the solve
	// surrenders as the primal loop would.
	restoreLimit
)

// dualRestore runs textbook bounded-variable dual simplex pivots until
// every basic variable is back inside its bounds. The installed basis
// is dual feasible: an inherited one because the cost vector and
// constraint matrix match the parent's solve exactly (only bounds
// moved), the slack basis of a cold start by construction
// (slackBasis). Each pivot drives the most-violated basic variable to
// its violated bound and brings in the column whose reduced cost
// reaches zero first, so every reduced cost keeps its sign and the
// basis stays dual feasible. The entering column always pivots in, even
// when the step carries it past its opposite bound: it is then a basic
// primal infeasibility that a later pivot repairs. (Flipping it to that
// bound instead, with no dual step, would leave its reduced cost with
// the wrong sign there, and the next row would flip it straight back.)
//
// A leaving row with no entering column is a proof of infeasibility
// when its row of B⁻¹ passes provesInfeasible. Otherwise, or after more
// than stallLimit consecutive dual-degenerate pivots (a min ratio
// within tol.Tie of zero: the dual objective does not move, and the
// loop has no anti-cycling rule of its own), restoration gives up and
// phase 1, whose primal loop falls back to Bland's rule, repairs the
// infeasibility left on the basis it ended on. Options.MaxIters bounds
// the whole solve, restoration included. A singular refactorization is
// a numerical failure returned as an error, as in the primal loop.
// Dual feasibility is an efficiency argument here, not a correctness
// dependency: whatever basis restoration ends on, phase 1 and
// finishPhase2 run primal simplex to a proven verdict.
func (t *tableau) dualRestore() (dualOutcome, error) {
	const pivTol = tol.Pivot
	m := t.m
	t.phase = 2
	t.pricedCost = t.cost
	y := t.workRow
	for {
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
		if t.opts.Inject.Fire(faultinject.SiteStall) {
			// Injected cycling, surrendered as the primal loop does.
			t.limit = lp.LimitIterations
			return restoreLimit, nil
		}
		// Restoration can run past the eta-file cap; collapse the file on
		// the same trigger the pivot loop uses.
		if t.la.etas.count() >= t.opts.refactorEvery {
			if err := t.refactorize(); err != nil {
				return 0, err
			}
		}

		bi := t.basicIn[r]
		target := t.lower[bi]
		if !toLower {
			target = t.upper[bi]
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
		for j := 0; j < t.nTotal; j++ {
			st := t.status[j]
			if st == basic {
				continue
			}
			if tol.Same(t.lower[j], t.upper[j]) && st != freeAtZero {
				continue // fixed
			}
			alpha := t.rowAlpha(rho, j)
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
			// No column can repair the violation. In exact arithmetic
			// that proves the LP infeasible; restoration says so only
			// when ρ passes the certificate test on the model data, and
			// phase 1 answers otherwise.
			if t.provesInfeasible(rho) {
				return restoreInfeasible, nil
			}
			return restoreStale, nil
		}
		if t.opts.Inject.Fire(faultinject.SitePivot) {
			return 0, fmt.Errorf("simplex: injected pivot failure at iteration %d (fault injection)", t.iters)
		}
		if bestRatio <= tol.Tie {
			t.degenRun++
			t.degenTotal++
			if t.degenRun > stallLimit {
				return restoreStale, nil
			}
		} else {
			t.degenRun = 0
		}

		t.ftran(enter)
		w := t.workCol // w[r] equals enterAlpha: both are B⁻¹ row r · A_j

		step := (t.xB[r] - target) / (enterDir * w[r])
		if step < 0 {
			step = 0
		}
		t.iters++
		t.dualPivots++
		// The leaving variable exits exactly at its violated bound.
		t.stepBasics(enterDir, step, w)
		t.pivotBasis(enter, r, enterDir, step, !toLower, w)
	}
}

// rowAlpha returns ρᵀA_j, the entry of column j in the tableau row
// whose B⁻¹ row is ρ.
func (t *tableau) rowAlpha(rho []float64, j int) float64 {
	c := t.cols[j]
	alpha := 0.0
	for k, ri := range c.rows {
		alpha += rho[ri] * c.coefs[k]
	}
	return alpha
}

// provesInfeasible reports whether ρ is a Farkas certificate for the
// model's rows A·x + s = b under the column bounds: every solution
// satisfies Σ_j (ρᵀA_j)·x_j + Σ_i ρ_i·s_i = ρᵀb, so the LP is infeasible
// when ρᵀb lies outside the range the left side spans over the bounds
// of the structural and slack columns. The test reads only ρ and the model data the tableau holds,
// never the factorization's other output, so a stale basis can only
// make it fail. The margin must exceed lp.FeasTol times the largest
// finite term, which covers the rounding of the sums. An |α| ≤
// tol.Pivot on a column with an infinite bound counts as zero, as it
// does in the dual ratio test, so the verdict holds at the engine's
// pivot tolerance rather than exactly.
func (t *tableau) provesInfeasible(rho []float64) bool {
	scale, rhs := 1.0, 0.0
	for i, bi := range t.b {
		term := rho[i] * bi
		rhs += term
		scale = math.Max(scale, math.Abs(term))
	}
	lo, hi := 0.0, 0.0
	for j := 0; j < t.nTotal; j++ {
		alpha := t.rowAlpha(rho, j)
		l, u := t.lower[j], t.upper[j]
		if math.Abs(alpha) <= tol.Pivot && (math.IsInf(l, -1) || math.IsInf(u, 1)) {
			continue
		}
		a, b := alpha*l, alpha*u
		if alpha < 0 {
			a, b = b, a
		}
		lo += a
		hi += b
		if !math.IsInf(a, 0) {
			scale = math.Max(scale, math.Abs(a))
		}
		if !math.IsInf(b, 0) {
			scale = math.Max(scale, math.Abs(b))
		}
	}
	eps := lp.FeasTol * scale
	return rhs < lo-eps || rhs > hi+eps
}
