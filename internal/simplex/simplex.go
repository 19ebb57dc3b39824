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
	// MaxIters caps total simplex pivots across both phases.
	// Default 50000 + 100×rows.
	MaxIters int
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
	// phases, so a solve costs at most four emissions.
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
}

// stallLimit is the number of consecutive degenerate pivots tolerated
// before switching to Bland's rule.
const stallLimit = 60

func (o *Options) withDefaults(rows int) Options {
	out := Options{}
	if o != nil {
		out = *o
	}
	if out.MaxIters <= 0 {
		out.MaxIters = 50000 + 100*rows
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
// instead, which reuses its scratch state across calls.
func Solve(model *lp.Model, opts *Options) (*lp.Solution, error) {
	return NewSolver(opts).Solve(model)
}

// SolveContext is Solve with cancellation: the iteration loop polls the
// context every 128 pivots and returns ctx.Err() (no solution — a half-
// pivoted tableau carries no usable point) once it is done. A nil ctx is
// treated as context.Background(). Options.Deadline remains the graceful
// way to bound a solve and still get an iteration-limit status back.
func SolveContext(ctx context.Context, model *lp.Model, opts *Options) (*lp.Solution, error) {
	return NewSolver(opts).SolveContext(ctx, model)
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
	nTotal  int // structural + slacks + artificials

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
	// visited. Slack and artificial columns are unit columns and are
	// handled implicitly.
	rowStart []int32
	rowVar   []int32
	rowCoef  []float64

	// Devex pricing state. dj holds the maintained reduced costs of the
	// active phase; djExact marks them as freshly recomputed from the
	// basis (a terminal optimal/unbounded verdict is only ever issued off
	// exact values); djValid marks them usable at all (Bland-mode pivots
	// skip maintenance and invalidate them). gamma holds the devex
	// reference weights; cand the retained candidate buffer of partial
	// pricing; scanFrom the rotating scan cursor.
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
	// free of registry calls even when metrics are armed.
	p1Iters    int
	degenTotal int
	blandFlips int
	// Warm-start counters (see warm.go). warmHits marks a solve that
	// completed on the warm path (phase 1 skipped); warmMisses marks a
	// solve that was offered a basis but ran the cold two-phase path;
	// dualPivots counts dual-simplex restoration pivots (also included in
	// iters, so pivot totals keep reconciling with Solution.Iterations).
	warmHits   int
	warmMisses int
	dualPivots int
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
	resid       []float64       // scratch: initial residuals
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
	t.nTotal = n + 2*m
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
		// Artificial column j = n + m + r (coefficient set after residuals
		// are known).
		a := n + m + r
		ac := &t.cols[a]
		ac.rows = append(ac.rows, int32(r))
		ac.coefs = append(ac.coefs, 1)
		t.lower[a], t.upper[a] = 0, math.Inf(1)
	}
	return nil
}

// initialValue picks the starting value for a nonbasic column.
func initialValueFor(lo, hi float64) (float64, varStatus) {
	switch {
	case math.IsInf(lo, -1) && math.IsInf(hi, 1):
		return 0, freeAtZero
	case math.IsInf(lo, -1):
		return hi, atUpper
	case math.IsInf(hi, 1):
		return lo, atLower
	case math.Abs(lo) <= math.Abs(hi):
		return lo, atLower
	default:
		return hi, atUpper
	}
}

func (t *tableau) solve() (*lp.Solution, error) {
	n, m := t.nStruct, t.m

	// Nonbasic start for structurals and slacks.
	for j := 0; j < n+m; j++ {
		v, st := initialValueFor(t.lower[j], t.upper[j])
		t.value[j] = v
		t.status[j] = st
		t.inRow[j] = -1
	}
	// Residuals determine artificial orientation and value.
	t.resid = reuseF64(t.resid, m)
	resid := t.resid
	copy(resid, t.b)
	for j := 0; j < n+m; j++ {
		if tol.IsZero(t.value[j]) {
			continue
		}
		c := t.cols[j]
		for k, r := range c.rows {
			resid[r] -= c.coefs[k] * t.value[j]
		}
	}
	needPhase1 := false
	for r := 0; r < m; r++ {
		a := n + m + r
		if resid[r] < 0 {
			t.cols[a].coefs[0] = -1
		}
		av := math.Abs(resid[r])
		t.xB[r] = av
		t.value[a] = av
		t.status[a] = basic
		t.basicIn[r] = int32(a)
		t.inRow[a] = int32(r)
		if av > lp.FeasTol {
			needPhase1 = true
		}
	}
	// Factorize the (trivially triangular) artificial basis so the first
	// FTRAN/BTRAN have factors to solve against.
	if err := t.factorizeBasis(); err != nil {
		return nil, err
	}

	if needPhase1 {
		t.phase = 1
		t.p1Cost = reuseF64(t.p1Cost, t.nTotal)
		for r := 0; r < m; r++ {
			t.p1Cost[n+m+r] = 1
		}
		t.pricedCost = t.p1Cost
		t.tracePhase(obs.KindPhaseStart, 1)
		st, err := t.iterate()
		if err != nil {
			return nil, err
		}
		t.p1Iters = t.iters
		t.tracePhase(obs.KindPhaseEnd, 1)
		if st == lp.StatusIterLimit {
			return &lp.Solution{Status: lp.StatusIterLimit, Iterations: t.iters, Limit: t.limit}, nil
		}
		t.recomputeXB()
		if t.phaseObjective() > lp.FeasTol*math.Max(1, t.bScale()) {
			return &lp.Solution{Status: lp.StatusInfeasible, Iterations: t.iters}, nil
		}
	}
	// Freeze artificials at zero for phase 2.
	for r := 0; r < m; r++ {
		a := n + m + r
		t.lower[a], t.upper[a] = 0, 0
		if t.inRow[a] < 0 {
			t.value[a] = 0
			t.status[a] = atLower
		}
	}

	return t.finishPhase2()
}

// finishPhase2 runs phase 2 from the current (primal-feasible) basis and
// extracts the solution. It is the shared tail of the cold path (after
// phase 1) and the warm path (after dual-simplex restoration); the
// artificials must already be frozen at [0,0].
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

func (t *tableau) phaseObjective() float64 {
	obj := 0.0
	for j, c := range t.pricedCost {
		if !tol.IsZero(c) {
			obj += c * t.value[j]
		}
	}
	return obj
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

// recordStep counts the pivot, runs the degenerate-run/Bland-switch
// bookkeeping, and applies the step of length tMax to the basic values.
func (t *tableau) recordStep(enterDir, tMax float64, w []float64) {
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
	if tMax > 0 {
		for i := 0; i < t.m; i++ {
			if !tol.IsZero(w[i]) {
				t.xB[i] -= enterDir * tMax * w[i]
				t.value[t.basicIn[i]] = t.xB[i]
			}
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
	// Warm counters are folded only when nonzero: Add creates the key
	// even for a zero delta, and cold-only runs must not grow their
	// metric snapshots (golden traces pin those snapshots byte-stable).
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
