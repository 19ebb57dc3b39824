package simplex

import (
	"context"
	"fmt"
	"math"
	"time"

	"github.com/etransform/etransform/internal/lp"
	"github.com/etransform/etransform/internal/obs"
	"github.com/etransform/etransform/internal/resilience/faultinject"
	"github.com/etransform/etransform/internal/tol"
)

// Options control a solve. The zero value is usable: sensible defaults
// are applied for every unset field.
type Options struct {
	// Bland forces Bland's rule from the first pivot (slower, cycle-proof).
	Bland bool
	// Deadline, when set, bounds the solve's wall clock: the iteration
	// loop polls it every 128 pivots and surrenders with
	// lp.StatusIterLimit (Solution.Limit = lp.LimitWallClock) once
	// passed. This is what keeps one enormous subproblem LP from eating
	// an entire solve-wide budget.
	Deadline time.Time
	// Inject, when non-nil, arms the deterministic fault-injection
	// harness (pivot failures, stall, solution corruption). Production
	// callers leave it nil, which costs one pointer comparison per site.
	Inject *faultinject.Injector
	// Trace, when non-nil, receives phase start/end events (obs.Kind
	// Phase*). The pivot loop itself never emits: events bracket whole
	// phases, so a solve costs at most four emissions, and a solve whose
	// start leaves no infeasibility for phase 1 emits only the phase-2
	// pair.
	Trace *obs.Tracer
	// Metrics, when non-nil, receives per-solve counters (pivots,
	// degenerate pivots, Bland switches, factorizations) folded once
	// after each solve — the hot loop only increments local integers,
	// keeping the armed overhead far under the 2% pivot-loop budget.
	Metrics *obs.Metrics
	// refactorEvery caps the eta-file length: after this many basis
	// updates since the last factorization the basis is refactorized,
	// collapsing accumulated floating-point error and keeping
	// FTRAN/BTRAN cost bounded. Default 64. The drift guard (tol.Drift)
	// can force an earlier refactorization. Only this package's tests
	// set it, to show the policy is invisible in the results.
	refactorEvery int
	// maxIters caps total simplex pivots of a solve: dual restoration
	// and both primal phases. Default 50000 + 100×rows. Only this
	// package's tests set it, to reach the iteration-limit stop.
	maxIters int
}

// stallLimit is the number of consecutive degenerate pivots tolerated:
// the primal loop then switches to Bland's rule, and the dual
// restoration gives up to phase 1 (see dualRestore).
const stallLimit = 60

func (o *Options) withDefaults(rows int) Options {
	out := Options{}
	if o != nil {
		out = *o
	}
	if out.maxIters <= 0 {
		out.maxIters = 50000 + 100*rows
	}
	if out.refactorEvery <= 0 {
		out.refactorEvery = 64
	}
	return out
}

// Solve solves the continuous relaxation of m and returns the solution
// with primal values for the model's variables and one dual multiplier
// per row. The returned error is non-nil only for malformed input or an
// internal numerical failure; infeasible/unbounded outcomes are reported
// through Solution.Status.
//
// Solve builds fresh working state per call and is safe for concurrent
// use; callers that solve many models in a loop should hold a Solver
// instead, which reuses its scratch state across calls. Solve polls no
// context.
func Solve(model *lp.Model, opts *Options) (*lp.Solution, error) {
	return NewSolver(opts).SolveFrom(nil, model, nil)
}

// SolveContext is Solve with cancellation: the iteration loop polls the
// context every 128 pivots and returns ctx.Err() (no solution — a half-
// pivoted tableau carries no usable point) once it is done. A nil ctx
// never cancels. Options.Deadline remains the graceful way to bound a
// solve and still get an iteration-limit status back.
func SolveContext(ctx context.Context, model *lp.Model, opts *Options) (*lp.Solution, error) {
	return NewSolver(opts).SolveFrom(ctx, model, nil)
}

// Variable status within the tableau.
type varStatus int8

const (
	atLower varStatus = iota + 1
	atUpper
	basic
	freeAtZero
)

type sparseCol struct {
	rows  []int32
	coefs []float64
}

// tableau is the working state of one solve.
type tableau struct {
	opts Options

	m       int // rows
	nStruct int // structural variables
	nTotal  int // structural + slacks

	cols  []sparseCol
	lower []float64
	upper []float64
	cost  []float64 // phase-2 (true) costs
	b     []float64

	status  []varStatus
	value   []float64 // current value of every column (basics mirrored from xB)
	basicIn []int32   // column basic in row i
	inRow   []int32   // row a basic column occupies; -1 if nonbasic

	// la is the basis operator: a sparse LU plus an eta file, rebuilt per
	// solve. The m×m inverse is never materialized.
	la sparseLA
	xB []float64 // values of basic variables by row

	// CSR mirror of the structural columns (row-major), used to form the
	// pivot row α = ρᵀ·A sparsely: only rows where ρ is nonzero are
	// visited. Slack columns are unit columns and are handled
	// implicitly.
	rowStart []int32
	rowVar   []int32
	rowCoef  []float64

	// Devex pricing state. dj holds the maintained reduced costs of the
	// active phase or of the dual restoration; djExact marks them as
	// freshly recomputed from the basis (a terminal optimal/unbounded
	// verdict is only ever issued off exact values); djValid marks them
	// usable at all (Bland-mode pivots skip maintenance and invalidate
	// them). gamma holds the devex reference weights; cand the retained
	// candidate buffer of partial pricing; scanFrom the rotating scan
	// cursor.
	dj       []float64
	gamma    []float64
	djExact  bool
	djValid  bool
	cand     []int32
	scanFrom int

	// Pivot-row scratch: alpha/alphaNZ hold the nonzero entries of
	// ρᵀ·A for the current pivot row, touch/touchStamp the visited
	// marks, rho the BTRAN(e_r) result, rhsBuf the shared right-hand
	// side accumulator of recomputeXB and the drift check.
	alpha      []float64
	alphaNZ    []int32
	touch      []int32
	touchStamp int32
	rho        []float64
	rhsBuf     []float64

	phase     int
	iters     int
	degenRun  int
	blandMode bool
	refactors int
	// Per-solve observability counters, folded into opts.Metrics once
	// after the solve (see foldMetrics). Local ints keep the pivot loop
	// free of registry calls even when metrics are armed. degenTotal
	// counts the pivots that leave their loop's objective where it was:
	// primal steps of zero length and dual steps of zero ratio.
	p1Iters    int
	degenTotal int
	blandFlips int
	// Warm-start counters (see warm.go). warmHits marks a solve that
	// completed from an inherited basis (phase 1 skipped); warmMisses
	// marks a solve that was offered a basis that did not install, or
	// whose restoration gave up to phase 1; a cold solve's slack start
	// is neither. dualPivots counts dual-simplex restoration pivots of
	// either start, a restoration that gives up included (also counted
	// in iters, so pivot totals keep reconciling with
	// Solution.Iterations).
	warmHits   int
	warmMisses int
	dualPivots int
	// slack is the scratch all-slack basis of a cold start
	// (slackBasis), reused across solves like the slices above.
	slack Basis
	// relaxed lists the columns whose bounds phase 1 has relaxed, each
	// with the bound the relaxation replaced by an infinite one (see
	// phase1).
	relaxed []relaxedBound
	// Linear-algebra counters: basis factorizations (initial, periodic
	// and recovery), eta updates appended between them, columns examined
	// by pricing, and the worst relative primal drift observed at a
	// periodic check.
	factorizations   int
	etaUpdates       int
	pricedCandidates int64
	driftMax         float64
	// lastOptimal records that the most recent solve ended StatusOptimal
	// in phase 2, i.e. status/basicIn describe an optimal basis that
	// Solver.Basis can snapshot.
	lastOptimal bool
	ctx         context.Context // nil when the solve is not cancellable
	limit       string          // lp.Limit* cause when iterate stops early
	workCol     []float64       // FTRAN result w = B⁻¹·A_j
	workRow     []float64       // BTRAN result y
	pricedCost  []float64       // cost vector of the active phase
	p1Cost      []float64       // scratch: phase-1 cost vector
}

// reset (re)initializes the tableau for a solve of model, reusing every
// scratch slice whose capacity suffices. After reset the tableau holds
// no reference to model and is byte-for-byte equivalent to a freshly
// allocated one, so reuse cannot change results.
func (t *tableau) reset(model *lp.Model, opts *Options) error {
	m := model.NumRows()
	n := model.NumVars()
	t.opts = opts.withDefaults(m)
	t.m = m
	t.nStruct = n
	t.nTotal = n + m
	t.phase = 0
	t.iters = 0
	t.degenRun = 0
	t.blandMode = false
	t.refactors = 0
	t.p1Iters = 0
	t.degenTotal = 0
	t.blandFlips = 0
	t.warmHits = 0
	t.warmMisses = 0
	t.dualPivots = 0
	t.lastOptimal = false
	t.limit = ""
	t.pricedCost = nil
	t.factorizations = 0
	t.etaUpdates = 0
	t.pricedCandidates = 0
	t.driftMax = 0
	t.djExact = false
	t.djValid = false
	t.scanFrom = 0
	t.touchStamp = 0

	if cap(t.cols) < t.nTotal {
		t.cols = make([]sparseCol, t.nTotal)
	} else {
		t.cols = t.cols[:t.nTotal]
		for i := range t.cols {
			t.cols[i].rows = t.cols[i].rows[:0]
			t.cols[i].coefs = t.cols[i].coefs[:0]
		}
	}
	t.lower = reuseF64(t.lower, t.nTotal)
	t.upper = reuseF64(t.upper, t.nTotal)
	t.cost = reuseF64(t.cost, t.nTotal)
	t.b = reuseF64(t.b, m)
	t.status = reuseStatus(t.status, t.nTotal)
	t.value = reuseF64(t.value, t.nTotal)
	t.basicIn = reuseI32(t.basicIn, m)
	t.inRow = reuseI32(t.inRow, t.nTotal)
	t.workCol = reuseF64(t.workCol, m)
	t.workRow = reuseF64(t.workRow, m)
	t.xB = reuseF64(t.xB, m)
	t.dj = reuseF64(t.dj, t.nTotal)
	t.gamma = reuseF64(t.gamma, t.nTotal)
	t.alpha = reuseF64(t.alpha, t.nTotal)
	t.touch = reuseI32(t.touch, t.nTotal)
	t.alphaNZ = t.alphaNZ[:0]
	t.cand = t.cand[:0]

	// Structural columns.
	for j := 0; j < n; j++ {
		v := model.Var(lp.VarID(j))
		if math.IsInf(v.Cost, 0) {
			return fmt.Errorf("simplex: variable %q has infinite cost", v.Name)
		}
		t.lower[j] = v.Lower
		t.upper[j] = v.Upper
		t.cost[j] = v.Cost
	}
	t.rowStart = reuseI32(t.rowStart, m+1)
	t.rowVar = t.rowVar[:0]
	t.rowCoef = t.rowCoef[:0]
	for r := 0; r < m; r++ {
		row := model.Row(lp.RowID(r))
		for _, term := range row.Terms {
			c := &t.cols[term.Var]
			c.rows = append(c.rows, int32(r))
			c.coefs = append(c.coefs, term.Coef)
			t.rowVar = append(t.rowVar, int32(term.Var))
			t.rowCoef = append(t.rowCoef, term.Coef)
		}
		t.rowStart[r+1] = int32(len(t.rowVar))
		t.b[r] = row.RHS
		// Slack column j = n + r.
		s := n + r
		sc := &t.cols[s]
		sc.rows = append(sc.rows, int32(r))
		sc.coefs = append(sc.coefs, 1)
		switch row.Sense {
		case lp.LE:
			t.lower[s], t.upper[s] = 0, math.Inf(1)
		case lp.GE:
			t.lower[s], t.upper[s] = math.Inf(-1), 0
		case lp.EQ:
			t.lower[s], t.upper[s] = 0, 0
		}
	}
	return nil
}

// initialStatus picks where a nonbasic column with no cost sign to
// follow rests: at zero when free, else at its finite bound nearer
// zero.
func initialStatus(lo, hi float64) varStatus {
	switch {
	case math.IsInf(lo, -1) && math.IsInf(hi, 1):
		return freeAtZero
	case math.IsInf(lo, -1):
		return atUpper
	case math.IsInf(hi, 1):
		return atLower
	case math.Abs(lo) <= math.Abs(hi):
		return atLower
	default:
		return atUpper
	}
}

// solve runs the one start pipeline on the freshly reset tableau. It
// installs the inherited basis, or else the all-slack basis, an
// identity matrix that always installs; restores primal feasibility by
// dual simplex when that start is dual feasible (an inherited basis, or
// the slack basis outside Bland pricing, which the dual loop lacks);
// runs phase 1 on whatever infeasibility is left, including after a
// restoration that gives up; and finishes in phase 2.
func (t *tableau) solve(inherited *Basis) (*lp.Solution, error) {
	warm := t.installBasis(inherited)
	dual := warm
	if !warm {
		if inherited != nil {
			t.warmMisses = 1
		}
		slack, dualFeasible := t.slackBasis()
		if !t.installBasis(slack) {
			return nil, fmt.Errorf("simplex: the all-slack basis does not install")
		}
		dual = dualFeasible && !t.opts.Bland
	}
	st := lp.StatusOptimal
	if dual {
		out, err := t.dualRestore()
		if err != nil {
			return nil, err
		}
		switch out {
		case restoreInfeasible:
			st = lp.StatusInfeasible
		case restoreLimit:
			st = lp.StatusIterLimit
		}
		if warm && out != restoreLimit {
			if out == restoreStale {
				t.warmMisses = 1
			} else {
				t.warmHits = 1
			}
		}
	}
	if st == lp.StatusOptimal {
		var err error
		if st, err = t.phase1(); err != nil {
			return nil, err
		}
	}
	switch st {
	case lp.StatusIterLimit:
		return &lp.Solution{Status: lp.StatusIterLimit, Iterations: t.iters, Limit: t.limit}, nil
	case lp.StatusInfeasible:
		return &lp.Solution{Status: lp.StatusInfeasible, Iterations: t.iters}, nil
	}
	return t.finishPhase2()
}

// relaxedBound records one column whose bounds phase 1 relaxed: bound
// is the original bound the relaxation replaced by an infinite one (the
// upper bound of a column below its lower bound, the lower bound of one
// above its upper bound).
type relaxedBound struct {
	col   int32
	bound float64
}

// phase1 drives the basic columns that lie outside their bounds back
// inside. Each such column temporarily takes the bound it violates as
// its opposite bound, (−∞, l] below l and [u, +∞) above u, and costs −1
// below or +1 above; every other column costs 0. The installed basis is
// then feasible under the relaxed bounds, and the phase-1 objective is
// the total violation up to a constant, so iterate runs unchanged. At
// each phase-1 optimum the relaxed columns back inside their bounds
// (within lp.FeasTol·max(1, ‖b‖∞)) get those bounds back, and phase 1
// goes on with the rest. An optimum that restores none proves the LP
// infeasible: every relaxed column is then strictly outside its bounds,
// and were the LP feasible, a short step toward a feasible point would
// move each of them toward its violated bound, staying inside the
// relaxed bounds and lowering the objective. It returns StatusOptimal
// once no column is relaxed, StatusInfeasible, or StatusIterLimit.
func (t *tableau) phase1() (lp.Status, error) {
	t.relaxed = t.relaxed[:0]
	for i := 0; i < t.m; i++ {
		j := t.basicIn[i]
		lo, hi := t.lower[j], t.upper[j]
		switch {
		case lo-t.xB[i] > lp.FeasTol:
			t.relaxed = append(t.relaxed, relaxedBound{j, hi})
			t.lower[j], t.upper[j] = math.Inf(-1), lo
		case t.xB[i]-hi > lp.FeasTol:
			t.relaxed = append(t.relaxed, relaxedBound{j, lo})
			t.lower[j], t.upper[j] = hi, math.Inf(1)
		}
	}
	if len(t.relaxed) == 0 {
		return lp.StatusOptimal, nil
	}
	t.p1Cost = reuseF64(t.p1Cost, t.nTotal)
	for _, rb := range t.relaxed {
		t.p1Cost[rb.col] = 1
		if math.IsInf(t.lower[rb.col], -1) {
			t.p1Cost[rb.col] = -1 // below its lower bound
		}
	}
	t.phase = 1
	t.pricedCost = t.p1Cost
	t.blandMode = t.opts.Bland
	t.degenRun = 0
	start := t.iters
	t.tracePhase(obs.KindPhaseStart, 1)
	st := lp.StatusOptimal
	for len(t.relaxed) > 0 && st == lp.StatusOptimal {
		var err error
		if st, err = t.iterate(); err != nil {
			return 0, err
		}
		if st == lp.StatusOptimal {
			t.recomputeXB()
			if t.restoreBounds() == 0 {
				st = lp.StatusInfeasible
			}
		}
	}
	t.p1Iters = t.iters - start
	t.tracePhase(obs.KindPhaseEnd, 1)
	return st, nil
}

// restoreBounds gives each relaxed column that is back inside its
// original bounds, within lp.FeasTol·max(1, ‖b‖∞), those bounds and a
// zero phase-1 cost, and returns how many it restored. A nonbasic
// relaxed column rests at its one finite bound, the bound it violated,
// so it is always restored, with its status moved to that side.
func (t *tableau) restoreBounds() int {
	feasTol := lp.FeasTol * t.bScale()
	keep := t.relaxed[:0]
	for _, rb := range t.relaxed {
		j := rb.col
		if t.p1Cost[j] < 0 {
			// Below l: relaxed to (−∞, l].
			if t.upper[j]-t.value[j] > feasTol {
				keep = append(keep, rb)
				continue
			}
			t.lower[j], t.upper[j] = t.upper[j], rb.bound
			if t.status[j] == atUpper {
				t.status[j] = atLower
			}
		} else {
			// Above u: relaxed to [u, +∞).
			if t.value[j]-t.lower[j] > feasTol {
				keep = append(keep, rb)
				continue
			}
			t.lower[j], t.upper[j] = rb.bound, t.lower[j]
			if t.status[j] == atLower {
				t.status[j] = atUpper
			}
		}
		t.p1Cost[j] = 0
	}
	restored := len(t.relaxed) - len(keep)
	t.relaxed = keep
	return restored
}

// finishPhase2 runs phase 2 from the current (primal-feasible) basis and
// extracts the solution: the tail of every solve, after dual
// restoration, phase 1, or both.
func (t *tableau) finishPhase2() (*lp.Solution, error) {
	n, m := t.nStruct, t.m
	t.phase = 2
	t.pricedCost = t.cost
	t.blandMode = t.opts.Bland
	t.degenRun = 0
	t.tracePhase(obs.KindPhaseStart, 2)
	st, err := t.iterate()
	if err != nil {
		return nil, err
	}
	t.tracePhase(obs.KindPhaseEnd, 2)

	sol := &lp.Solution{Iterations: t.iters}
	switch st {
	case lp.StatusOptimal:
		sol.Status = lp.StatusOptimal
		t.lastOptimal = true
	case lp.StatusUnbounded:
		sol.Status = lp.StatusUnbounded
		return sol, nil
	case lp.StatusIterLimit:
		sol.Status = lp.StatusIterLimit
		sol.Limit = t.limit
	default:
		return nil, fmt.Errorf("simplex: unexpected terminal status %v", st)
	}

	// Extract primal point and duals.
	t.recomputeXB()
	x := make([]float64, n)
	for j := 0; j < n; j++ {
		x[j] = t.value[j]
	}
	sol.X = x
	obj := 0.0
	for j := 0; j < n; j++ {
		obj += t.cost[j] * x[j]
	}
	sol.Objective = obj

	t.computeDuals(t.workRow)
	duals := make([]float64, m)
	copy(duals, t.workRow)
	sol.DualValues = duals
	if t.opts.Inject.Fire(faultinject.SiteCorrupt) {
		// Injected numerical corruption: a NaN objective and primal entry,
		// as a sour factorization would produce. Downstream layers must
		// detect this and treat the subproblem as failed.
		sol.Objective = math.NaN()
		if len(sol.X) > 0 {
			sol.X[0] = math.NaN()
		}
	}
	return sol, nil
}

func (t *tableau) bScale() float64 {
	s := 1.0
	for _, v := range t.b {
		if a := math.Abs(v); a > s {
			s = a
		}
	}
	return s
}

// computeDuals fills y (len m) with cB' · B⁻¹ for the active cost
// vector: one BTRAN.
func (t *tableau) computeDuals(y []float64) {
	for r := 0; r < t.m; r++ {
		y[r] = t.pricedCost[t.basicIn[r]]
	}
	t.la.btran(y)
}

// reducedCost returns c_j − y'A_j.
func (t *tableau) reducedCost(j int, y []float64) float64 {
	d := t.pricedCost[j]
	c := t.cols[j]
	for k, r := range c.rows {
		d -= y[r] * c.coefs[k]
	}
	return d
}

// ftran computes w = B⁻¹ · A_j into t.workCol.
func (t *tableau) ftran(j int) {
	w := t.workCol
	for i := range w {
		w[i] = 0
	}
	c := t.cols[j]
	for k, r := range c.rows {
		w[r] = c.coefs[k]
	}
	t.la.ftran(w)
}

// ratioTest finds the row limiting the entering column's move in
// direction enterDir given its FTRAN column w. It returns the largest
// step tMax (+Inf when nothing limits it — unbounded), the leaving row
// (-1 when the entering variable's opposite bound limits first — a bound
// flip), and whether the leaving variable exits at its upper bound.
func (t *tableau) ratioTest(enter int, enterDir float64, w []float64) (tMax float64, leaveRow int, leaveToUpper bool) {
	const pivTol = tol.Pivot
	tMax = math.Inf(1)
	if !math.IsInf(t.lower[enter], -1) && !math.IsInf(t.upper[enter], 1) {
		tMax = t.upper[enter] - t.lower[enter]
	}
	leaveRow = -1
	consider := func(i int, ratio float64, toUpper bool) {
		if ratio < 0 {
			ratio = 0
		}
		switch {
		case ratio < tMax-pivTol:
			// Strictly tighter limit.
		case ratio < tMax+pivTol && better(leaveRow, i, w, t):
			// Tie: prefer the stabler (or Bland-lower) row.
		default:
			return
		}
		tMax = math.Min(tMax, ratio)
		leaveRow = i
		leaveToUpper = toUpper
	}
	for i := 0; i < t.m; i++ {
		wi := enterDir * w[i]
		bj := t.basicIn[i]
		if wi > pivTol {
			// Basic i decreases toward its lower bound.
			if lo := t.lower[bj]; !math.IsInf(lo, -1) {
				consider(i, (t.xB[i]-lo)/wi, false)
			}
		} else if wi < -pivTol {
			// Basic i increases toward its upper bound.
			if hi := t.upper[bj]; !math.IsInf(hi, 1) {
				consider(i, (hi-t.xB[i])/(-wi), true)
			}
		}
	}
	return tMax, leaveRow, leaveToUpper
}

// recordStep counts a primal pivot of step length tMax and runs the
// degenerate-run/Bland-switch bookkeeping.
func (t *tableau) recordStep(tMax float64) {
	t.iters++
	if tMax <= lp.FeasTol {
		t.degenRun++
		t.degenTotal++
		if t.degenRun > stallLimit {
			if !t.blandMode {
				t.blandFlips++
			}
			t.blandMode = true
		}
	} else {
		t.degenRun = 0
		if !t.opts.Bland {
			t.blandMode = false
		}
	}
}

// stepBasics applies a step of length tMax of the entering column, in
// direction enterDir with FTRAN column w, to the basic values. Both
// pivot loops call it before pivotBasis or a bound flip.
func (t *tableau) stepBasics(enterDir, tMax float64, w []float64) {
	if tMax <= 0 {
		return
	}
	for i := 0; i < t.m; i++ {
		if !tol.IsZero(w[i]) {
			t.xB[i] -= enterDir * tMax * w[i]
			t.value[t.basicIn[i]] = t.xB[i]
		}
	}
}

// boundFlip moves the entering variable across its range; the basis is
// unchanged.
func (t *tableau) boundFlip(enter int, enterDir float64) {
	if enterDir > 0 {
		t.value[enter] = t.upper[enter]
		t.status[enter] = atUpper
	} else {
		t.value[enter] = t.lower[enter]
		t.status[enter] = atLower
	}
}

// pivotBasis makes enter basic in leaveRow and moves the leaving
// variable to the bound the ratio test hit. The basis operator is
// updated last, so everything computed against the pre-pivot basis
// (pivot-row alphas, the FTRAN column itself) stays consistent.
func (t *tableau) pivotBasis(enter, leaveRow int, enterDir, tMax float64, leaveToUpper bool, w []float64) {
	leaving := t.basicIn[leaveRow]
	if leaveToUpper {
		t.value[leaving] = t.upper[leaving]
		t.status[leaving] = atUpper
	} else {
		t.value[leaving] = t.lower[leaving]
		t.status[leaving] = atLower
	}
	t.inRow[leaving] = -1

	enterVal := t.value[enter] + enterDir*tMax
	t.basicIn[leaveRow] = int32(enter)
	t.inRow[enter] = int32(leaveRow)
	t.status[enter] = basic
	t.value[enter] = enterVal
	t.xB[leaveRow] = enterVal

	t.la.etas.push(leaveRow, w)
	t.etaUpdates++
}

// better is the tie-break in the ratio test: prefer the row with the
// larger |pivot| for stability; under Bland, prefer the lower column
// index for the anti-cycling guarantee.
func better(cur, cand int, w []float64, t *tableau) bool {
	if cur < 0 {
		return true
	}
	if t.blandMode {
		return t.basicIn[cand] < t.basicIn[cur]
	}
	return math.Abs(w[cand]) > math.Abs(w[cur])
}

// binvRow returns row r of B⁻¹, computed as BTRAN(e_r) into the t.rho
// scratch. The returned slice is only valid until the next binvRow call
// or basis change.
func (t *tableau) binvRow(r int) []float64 {
	t.rho = reuseF64(t.rho, t.m)
	rho := t.rho
	for i := range rho {
		rho[i] = 0
	}
	rho[r] = 1
	t.la.btran(rho)
	return rho
}

// recomputeXB recomputes basic values exactly from nonbasic values:
// xB = B⁻¹·(b − N·xN), one FTRAN.
func (t *tableau) recomputeXB() {
	m := t.m
	t.rhsBuf = reuseF64(t.rhsBuf, m)
	rhs := t.rhsBuf
	copy(rhs, t.b)
	for j := 0; j < t.nTotal; j++ {
		if t.status[j] == basic || tol.IsZero(t.value[j]) {
			continue
		}
		c := t.cols[j]
		for k, r := range c.rows {
			rhs[r] -= c.coefs[k] * t.value[j]
		}
	}
	t.la.ftran(rhs)
	for i := 0; i < m; i++ {
		t.xB[i] = rhs[i]
		t.value[t.basicIn[i]] = rhs[i]
	}
}

// refactorize rebuilds the basis operator from the current basis columns
// and recomputes basic values. It is the recovery entry point (tiny
// pivots, drift, eta-file cap, basis install); the refactors counter caps
// the tiny-pivot retries, while factorizeBasis counts every factorization
// including the initial one for the simplex.factorizations metric.
func (t *tableau) refactorize() error {
	t.refactors++
	if err := t.factorizeBasis(); err != nil {
		return err
	}
	t.recomputeXB()
	return nil
}

// factorizeBasis rebuilds the basis operator alone: a sparse LU and an
// emptied eta file. Basic values are not touched.
func (t *tableau) factorizeBasis() error {
	t.factorizations++
	if err := t.la.refactor(t.m, t.cols, t.basicIn); err != nil {
		return err
	}
	// Maintained reduced costs survive a refactorization (the basis is
	// unchanged) but are no longer verified against fresh factors.
	t.djExact = false
	return nil
}

// tracePhase emits one simplex phase bracket event. The guard keeps the
// disabled cost at a pointer comparison; phase events are the only ones
// the simplex layer emits, so even an armed tracer sees at most four
// emissions per solve.
func (t *tableau) tracePhase(kind obs.Kind, phase int) {
	if t.opts.Trace == nil {
		return
	}
	t.opts.Trace.Emit(obs.Event{
		Kind: kind, Name: fmt.Sprintf("phase%d", phase), Phase: phase,
		Iterations: t.iters,
	})
}

// foldMetrics flushes the solve's local counters into the registry —
// once per solve, after the tableau has stopped, so the pivot loop
// itself never touches a mutex.
func (t *tableau) foldMetrics() {
	m := t.opts.Metrics
	if m == nil {
		return
	}
	m.Add(obs.MetricSimplexSolves, 1)
	m.Add(obs.MetricSimplexPivots, int64(t.iters))
	m.Add(obs.MetricSimplexPhase1, int64(t.p1Iters))
	m.Add(obs.MetricSimplexDegenerate, int64(t.degenTotal))
	m.Add(obs.MetricSimplexBland, int64(t.blandFlips))
	m.Observe(obs.MetricHistPivotsPerSolve, float64(t.iters))
	// Warm and dual counters are folded only when nonzero: Add creates
	// the key even for a zero delta, and runs that never take the path
	// a counter measures must not grow their metric snapshots.
	if t.warmHits > 0 {
		m.Add(obs.MetricSimplexWarmHits, int64(t.warmHits))
	}
	if t.warmMisses > 0 {
		m.Add(obs.MetricSimplexWarmMisses, int64(t.warmMisses))
	}
	if t.dualPivots > 0 {
		m.Add(obs.MetricSimplexDualPivots, int64(t.dualPivots))
	}
	// Linear-algebra counters, likewise folded only when nonzero.
	if t.factorizations > 0 {
		m.Add(obs.MetricSimplexFactorizations, int64(t.factorizations))
	}
	if t.etaUpdates > 0 {
		m.Add(obs.MetricSimplexEtaUpdates, int64(t.etaUpdates))
	}
	if t.pricedCandidates > 0 {
		m.Add(obs.MetricSimplexPricedCandidates, t.pricedCandidates)
	}
	if t.driftMax > 0 {
		m.MaxGauge(obs.MetricSimplexRefactorDriftMax, t.driftMax)
	}
}
