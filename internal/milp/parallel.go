package milp

import (
	"container/heap"
	"context"
	"fmt"
	"math"
	"strconv"
	"sync"
	"time"

	"github.com/etransform/etransform/internal/lp"
	"github.com/etransform/etransform/internal/obs"
	"github.com/etransform/etransform/internal/resilience/faultinject"
	"github.com/etransform/etransform/internal/simplex"
	"github.com/etransform/etransform/internal/tol"
)

// coordinator owns the shared branch & bound state. Everything below mu
// is guarded by it; workers claim nodes and commit results under the
// lock and do all LP work outside it.
type coordinator struct {
	opts     Options
	lpOpts   simplex.Options // every LP's options, built once by SolveContext
	ctx      contextLike
	model    *lp.Model // original (with integrality markers), presolved
	intVars  []lp.VarID
	deadline time.Time
	// deadlineIsCtx records, at configuration time, that the effective
	// deadline came from the context rather than an option limit; expiry
	// then maps to StatusCanceled instead of the graceful StatusNodeLimit.
	deadlineIsCtx bool
	start         time.Time

	// Root-phase state, written only by the sequential root phase before
	// worker fan-out (no lock needed; see solve's phase argument).
	// cutModel is the integral model plus the root cuts that survived
	// activity aging; workers relax it for their node LPs. nil when the
	// root separated nothing. The incumbent path
	// deliberately never sees it: verify checks points against the
	// cut-free c.model.
	cutModel      *lp.Model
	stash         [][]float64 // the verified warm starts, guarding cut validity
	cutsSeparated int64
	cutsActive    int64

	mu   sync.Mutex
	cond *sync.Cond

	queue      nodeQueue // guarded by mu
	queueBytes int64     // estimated heap footprint of queued nodes; guarded by mu
	seq        int       // guarded by mu
	inFlight   int       // nodes claimed but not yet committed; guarded by mu
	flight     []float64 // per-worker bound of the claimed node, +Inf when idle; guarded by mu

	incumbent    []float64 // guarded by mu
	incumbentObj float64   // guarded by mu
	haveInc      bool      // guarded by mu

	lastBound  float64 // monotone global lower bound; guarded by mu
	nodes      int     // guarded by mu
	iterations int     // guarded by mu
	nodesBy    []int   // guarded by mu
	peakQueue  int     // guarded by mu
	// prunedBound is the smallest bound among nodes discarded within
	// pruneEps of the incumbent. They leave the queue unexplored, so the
	// reported gap must still count them.
	prunedBound float64 // guarded by mu

	// The terminal state, recorded by the first stop (stopLocked) or
	// failure (failLocked); finish builds the result from it.
	done        bool      // guarded by mu
	finalStatus lp.Status // guarded by mu
	finalBound  float64   // the global bound when the search stopped; guarded by mu
	limit       string    // budget dimension behind a limit stop (lp.Limit*); guarded by mu
	err         error     // guarded by mu
	ctxErr      error     // guarded by mu

	workTime time.Duration // summed per-worker busy time, folded by finish
}

// contextLike is the subset of context.Context the coordinator needs;
// keeping it narrow makes the between-node polling cost explicit.
type contextLike interface {
	Err() error
}

// newCoordinator builds the shared state before any worker exists.
//
//etlint:ignore lockguard construction happens-before publication: no goroutine can hold a reference yet
func newCoordinator(ctx contextLike, opts Options, model *lp.Model) *coordinator {
	c := &coordinator{
		opts:        opts,
		ctx:         ctx,
		model:       model,
		start:       time.Now(),
		lastBound:   math.Inf(-1),
		prunedBound: math.Inf(1),
		nodesBy:     make([]int, opts.Workers),
		flight:      make([]float64, opts.Workers),
	}
	for i := range c.flight {
		c.flight[i] = math.Inf(1)
	}
	// The root is worker 0's node, in flight at −∞ until it branches, so a
	// stop before then reports that no bound was proven.
	c.flight[0] = math.Inf(-1)
	c.cond = sync.NewCond(&c.mu)
	return c
}

// worker is one search goroutine: a private relaxed model clone whose
// bounds it mutates, plus a reusable simplex engine.
type worker struct {
	id         int
	c          *coordinator
	work       *lp.Model
	sx         *simplex.Solver
	iterations int // folded into the coordinator at each commit and by finish
	busy       time.Duration
}

func (c *coordinator) newWorker(id int) *worker {
	base := c.model
	if c.cutModel != nil {
		// Tree workers search over the cut-strengthened relaxation; the
		// extra rows are valid for every integer point, so subtree bounds
		// only tighten.
		base = c.cutModel
	}
	return &worker{id: id, c: c, work: base.Relax(), sx: simplex.NewSolver(&c.lpOpts)}
}

func (c *coordinator) expired() bool {
	if c.opts.Inject.Fire(faultinject.SiteDeadline) {
		return true
	}
	return !c.deadline.IsZero() && time.Now().After(c.deadline)
}

func (c *coordinator) stopped() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.done
}

// pruneEps is the absolute slack used when comparing bounds against the
// incumbent objective incObj, derived from the relative gap tolerance.
func (c *coordinator) pruneEps(incObj float64) float64 {
	return c.opts.GapTol * math.Max(1, math.Abs(incObj))
}

// globalBoundLocked is the proven lower bound on the optimum: the
// smallest LP bound over queued and in-flight nodes (−∞ while the root is
// in flight). With no open nodes the incumbent itself is the bound.
// Monotone via lastBound.
// caller holds c.mu.
func (c *coordinator) globalBoundLocked() float64 {
	b := math.Inf(1)
	if len(c.queue) > 0 {
		b = c.queue[0].bound
	}
	for _, f := range c.flight {
		if f < b {
			b = f
		}
	}
	if math.IsInf(b, 1) {
		if c.haveInc {
			b = c.incumbentObj
		} else {
			b = c.lastBound
		}
	}
	c.advanceBoundLocked(b)
	return c.lastBound
}

// advanceBoundLocked raises the monotone global bound and records the
// improvement in the observability layer. caller holds c.mu.
func (c *coordinator) advanceBoundLocked(b float64) {
	if b <= c.lastBound {
		return
	}
	c.lastBound = b
	c.opts.Metrics.Add(obs.MetricMILPBoundImprove, 1)
	if c.opts.Trace != nil && !math.IsInf(b, 0) {
		c.opts.Trace.Emit(obs.Event{Kind: obs.KindBound, Value: obs.Float64(b), Nodes: obs.Int(c.nodes)})
	}
}

// pushLocked enqueues one open node and maintains the queue accounting.
// caller holds c.mu.
func (c *coordinator) pushLocked(bound float64, depth int, changes []boundChange, basis *simplex.Basis) {
	c.seq++
	nd := &node{bound: bound, depth: depth, seq: c.seq, changes: changes, basis: basis}
	heap.Push(&c.queue, nd)
	c.queueBytes += nodeBytes(nd)
	if len(c.queue) > c.peakQueue {
		c.peakQueue = len(c.queue)
	}
}

// nodeBytes estimates the heap footprint of one open node: the node
// struct, its bound-change list, and its parent basis snapshot. The
// frontier queue is the only part of the search whose memory grows
// without bound, so this is what Options.MemoryBytes meters. Siblings
// share one basis but each is charged in full — a deliberate
// overestimate, since a budget meter must never undercount.
func nodeBytes(nd *node) int64 {
	return 64 + 24*int64(cap(nd.changes)) + nd.basis.MemBytes()
}

// stopLocked ends the search with the given terminal status and bound.
// limit names the budget dimension behind a limit stop ("" for natural
// termination). The first stop wins; later calls are no-ops.
// caller holds c.mu.
func (c *coordinator) stopLocked(status lp.Status, bound float64, limit string) {
	if c.done {
		return
	}
	c.done = true
	c.finalStatus = status
	c.limit = limit
	if bound > c.lastBound {
		c.lastBound = bound
	}
	c.finalBound = c.lastBound
	c.cond.Broadcast()
}

// limitLocked ends the search at the budget stop lim (an lp.Limit*
// constant), taking the global bound while the stopping node is still in
// flight. Every stop at a limit comes here — the node and memory budgets
// and the deadline at claim time, a node LP's stop in commit, the root
// LP's stop — so this is the one place that decides what a wall-clock
// stop means: the caller's cancellation (StatusCanceled with
// context.DeadlineExceeded) when the effective deadline came from the
// context, decided at configuration time (deadlineIsCtx) rather than by
// racing time.Now against the context's own timer, and otherwise the
// graceful StatusNodeLimit naming the budget.
// caller holds c.mu.
func (c *coordinator) limitLocked(lim string) {
	if lim == lp.LimitWallClock && c.deadlineIsCtx {
		c.cancelLocked(context.DeadlineExceeded)
		return
	}
	c.stopLocked(lp.StatusNodeLimit, c.globalBoundLocked(), lim)
}

// cancelLocked ends the search as the caller's cancellation with err.
// caller holds c.mu.
func (c *coordinator) cancelLocked(err error) {
	if !c.done {
		c.ctxErr = err
	}
	c.stopLocked(lp.StatusCanceled, c.globalBoundLocked(), "")
}

// failLocked records the first worker error and ends the search.
// caller holds c.mu.
func (c *coordinator) failLocked(err error) {
	if c.err == nil {
		c.err = err
	}
	c.done = true
	c.cond.Broadcast()
}

// snapshotIncumbent returns the incumbent objective for pruning. A stale
// snapshot only makes pruning less aggressive, never incorrect.
func (c *coordinator) snapshotIncumbent() (float64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.incumbentObj, c.haveInc
}

// mostFractional returns the integer variable whose LP value is farthest
// from integral, or -1 if the point is integral on all integer variables.
// Read-only on coordinator state; safe without the lock.
func (c *coordinator) mostFractional(x []float64) (lp.VarID, float64) {
	best := lp.VarID(-1)
	bestDist := lp.IntTol
	bestVal := 0.0
	for _, v := range c.intVars {
		val := x[v]
		dist := math.Abs(val - math.Round(val))
		// Most fractional: maximize distance from nearest integer.
		if dist > bestDist+tol.Tie {
			best, bestDist, bestVal = v, dist, val
		}
	}
	return best, bestVal
}

// tryAccept installs x as the incumbent if it verifies against the
// original model and still beats the incumbent at install time. The
// expensive feasibility check runs outside the lock, and only for a point
// whose LP objective gateObj beats the incumbent snapshot.
// worker is the 1-based publisher for incumbent attribution.
func (c *coordinator) tryAccept(x []float64, gateObj float64, worker int) {
	if incObj, haveInc := c.snapshotIncumbent(); haveInc && gateObj >= incObj-tol.Tie {
		return
	}
	if snapped := c.verify(x); snapped != nil {
		c.install(snapped, worker)
	}
}

// verify snaps x's integer variables exactly and checks the result
// against the original model before anything trusts it. It returns the
// snapped point, or nil when x is not feasible.
func (c *coordinator) verify(x []float64) []float64 {
	if len(x) != c.model.NumVars() {
		return nil
	}
	snapped := make([]float64, len(x))
	copy(snapped, x)
	for _, v := range c.intVars {
		snapped[v] = math.Round(snapped[v])
	}
	if c.model.CheckFeasible(snapped, tol.Accept) != nil {
		return nil
	}
	return snapped
}

// install makes the verified point x the incumbent if it beats the
// incumbent at install time, double-checked under the lock, so the
// incumbent objective only decreases. worker is the 1-based publisher
// (0 for warm starts, which precede the search).
func (c *coordinator) install(x []float64, worker int) {
	obj := c.model.Objective(x)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.haveInc && obj >= c.incumbentObj-tol.Tie {
		return
	}
	c.incumbent = x
	c.incumbentObj = obj
	c.haveInc = true
	c.opts.Metrics.Add(obs.MetricMILPIncumbents, 1)
	if c.opts.Trace != nil {
		c.opts.Trace.Emit(obs.Event{
			Kind: obs.KindIncumbent, Value: obs.Float64(obj), Worker: worker, Nodes: obs.Int(c.nodes),
		})
	}
}

// solveWith applies the node's bound changes, solves the LP relaxation
// on the worker's private model, and restores the bounds. A non-nil
// basis (the parent LP's optimal basis) warm-starts the solve; the
// simplex layer falls back to its cold path on its own whenever the
// basis is stale, and a nil basis (the root) solves cold.
func (w *worker) solveWith(changes []boundChange, basis *simplex.Basis) (*lp.Solution, error) {
	saved := make([]boundChange, len(changes))
	for i, ch := range changes {
		v := w.work.Var(ch.v)
		saved[i] = boundChange{v: ch.v, lo: v.Lower, hi: v.Upper}
		if ch.lo > v.Upper || ch.hi < v.Lower || ch.lo > ch.hi {
			// The combined bounds are empty: infeasible without solving.
			for k := i - 1; k >= 0; k-- {
				w.work.SetBounds(saved[k].v, saved[k].lo, saved[k].hi)
			}
			return &lp.Solution{Status: lp.StatusInfeasible}, nil
		}
		w.work.SetBounds(ch.v, math.Max(ch.lo, v.Lower), math.Min(ch.hi, v.Upper))
	}
	sol, err := w.sx.SolveFrom(context.Background(), w.work, basis)
	for k := len(saved) - 1; k >= 0; k-- {
		w.work.SetBounds(saved[k].v, saved[k].lo, saved[k].hi)
	}
	if err != nil {
		return nil, err
	}
	w.iterations += sol.Iterations
	return sol, nil
}

func (w *worker) takeIterations() int {
	n := w.iterations
	w.iterations = 0
	return n
}

// branchChanges builds the down/up child bound-change lists for the most
// fractional variable of sol. The three-index slice of nd.changes forces
// append to copy, so siblings never share a backing array.
//
//etlint:ignore stickyerr dive branches only after cur.Status == StatusOptimal; sol is the just-checked relaxation
func (w *worker) branchChanges(nd *node, sol *lp.Solution) (down, up []boundChange) {
	v, val := w.c.mostFractional(sol.X)
	if v < 0 {
		return nil, nil
	}
	floor := math.Floor(val)
	varInfo := w.work.Var(v)
	down = append(nd.changes[:len(nd.changes):len(nd.changes)],
		boundChange{v: v, lo: varInfo.Lower, hi: floor})
	up = append(nd.changes[:len(nd.changes):len(nd.changes)],
		boundChange{v: v, lo: floor + 1, hi: varInfo.Upper})
	return down, up
}

// maxDiveDepth bounds the diving heuristic's fixing passes.
const maxDiveDepth = 200

// dive is the primal heuristic: repeatedly fix every near-integral
// integer variable and round the single most fractional one, re-solving
// until the LP is integral or infeasible.
func (w *worker) dive(base []boundChange, sol *lp.Solution) error {
	changes := make([]boundChange, len(base))
	copy(changes, base)
	cur := sol
	for depth := 0; depth < maxDiveDepth; depth++ {
		if cur.Status != lp.StatusOptimal || w.c.expired() || w.c.stopped() {
			return nil
		}
		v, _ := w.c.mostFractional(cur.X)
		if v < 0 {
			w.c.tryAccept(cur.X, cur.Objective, w.id+1)
			return nil
		}
		// Fix integer vars that are (nearly) settled at a nonzero value —
		// within tolerance of a positive integer, or within 0.3 of one
		// (strong fractional lean) — plus the most fractional variable at
		// its nearest integer. Near-zero vars stay free: locking them out
		// on the first pass cripples symmetric assignment models where
		// the LP leaves most columns at 0. Fixing the strong leans too
		// makes the dive converge in a few passes on thousand-variable
		// assignment models instead of one variable per pass.
		next := changes[:len(changes):len(changes)]
		for _, iv := range w.c.intVars {
			value := cur.X[iv]
			r := math.Round(value)
			settled := math.Abs(value-r) <= lp.IntTol && r > 0
			lean := r >= 1 && math.Abs(value-r) <= 0.3
			if iv == v || settled || lean {
				next = append(next, boundChange{v: iv, lo: r, hi: r})
			}
		}
		// The dive re-solves the worker's own last LP with extra fixings,
		// so its basis is the natural warm start for the next pass.
		var err error
		cur, err = w.solveWith(next, w.sx.Basis())
		if err != nil {
			return err
		}
		changes = next
	}
	return nil
}

// claim blocks until a node is available, the search ends, or a limit
// trips. It returns the claimed node and its 1-based claim index (the
// sequential node counter, used to pace re-dives), or ok=false when the
// worker should exit.
func (c *coordinator) claim(w *worker) (nd *node, nodeIdx int, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		for !c.done && len(c.queue) == 0 && c.inFlight > 0 {
			c.cond.Wait()
		}
		if c.done {
			return nil, 0, false
		}
		if len(c.queue) == 0 {
			// Queue drained with nothing in flight: the tree is exhausted,
			// so the incumbent is optimal, or no integer point exists.
			if c.haveInc {
				c.stopLocked(lp.StatusOptimal, c.incumbentObj, "")
			} else {
				c.stopLocked(lp.StatusInfeasible, math.Inf(1), "")
			}
			return nil, 0, false
		}
		lim := ""
		switch {
		case c.nodes >= c.opts.MaxNodes:
			lim = lp.LimitNodes
		case c.opts.MemoryBytes > 0 && c.queueBytes > c.opts.MemoryBytes:
			lim = lp.LimitMemory
		case c.expired():
			lim = lp.LimitWallClock
		}
		if lim != "" {
			c.limitLocked(lim)
			return nil, 0, false
		}
		if e := c.ctx.Err(); e != nil {
			c.cancelLocked(e)
			return nil, 0, false
		}
		nd = heap.Pop(&c.queue).(*node)
		c.queueBytes -= nodeBytes(nd)
		if c.haveInc && nd.bound >= c.incumbentObj-c.pruneEps(c.incumbentObj) {
			c.prunedBound = math.Min(c.prunedBound, nd.bound)
			if c.inFlight == 0 {
				// Best-first with nothing in flight: every remaining node
				// is at least as bad, so the search is over.
				c.stopLocked(lp.StatusOptimal, nd.bound, "")
				return nil, 0, false
			}
			// In-flight nodes may still push improving children; just
			// discard this one and wait for the next.
			continue
		}
		c.nodes++
		c.nodesBy[w.id]++
		c.inFlight++
		c.flight[w.id] = nd.bound
		return nd, c.nodes, true
	}
}

// commit folds a processed node back into the shared state: worker
// iteration counts, child nodes, and the optimality-gap termination
// test. Returns false when the worker should exit.
func (c *coordinator) commit(w *worker, sol *lp.Solution, err error, closed bool, down, up []boundChange, depth int, childBound float64, childBasis *simplex.Basis) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	defer c.cond.Broadcast()
	c.iterations += w.takeIterations()
	c.inFlight--
	if !c.done && err == nil && sol.Status == lp.StatusIterLimit {
		// The node LP ran out of its own budget (iterations, or the
		// propagated wall deadline), which ends the search. The node's
		// subtree stays unexplored, so its bound is still in flight while
		// the stop bound is taken: the monotone bound must not pass it
		// first.
		c.limitLocked(sol.Limit)
	}
	c.flight[w.id] = math.Inf(1)
	if c.done {
		// A terminal state was reached while we were solving (or just
		// now, by a node LP limit); our result can no longer change it
		// (stats are already folded above).
		return false
	}
	if err != nil {
		c.failLocked(err)
		return false
	}
	switch sol.Status {
	case lp.StatusInfeasible:
		return true
	case lp.StatusUnbounded:
		c.failLocked(fmt.Errorf("milp: child LP unbounded though root was bounded"))
		return false
	}
	if !closed {
		c.pushLocked(childBound, depth, down, childBasis)
		c.pushLocked(childBound, depth, up, childBasis)
	}
	if c.haveInc {
		bound := c.globalBoundLocked()
		if tol.RelGap(c.incumbentObj, bound) <= c.opts.GapTol {
			c.stopLocked(lp.StatusOptimal, bound, "")
			return false
		}
	}
	return true
}

// step runs one claim → LP solve → commit cycle. All LP work happens
// between the two lock acquisitions.
func (c *coordinator) step(w *worker) bool {
	nd, nodeIdx, ok := c.claim(w)
	if !ok {
		return false
	}
	// Fault-injection site: a worker dying mid-search with a claimed node
	// in flight. runWorker's recover converts it into a solver error.
	c.opts.Inject.MaybePanic(faultinject.SitePanic)
	t0 := time.Now()
	sol, err := w.solveWith(nd.changes, nd.basis)
	if err == nil && sol.Status == lp.StatusOptimal && !finiteSolution(sol) {
		// A NaN/Inf LP result would silently poison branching (every
		// comparison against NaN is false, so the node just closes and the
		// tree drains into a bogus "infeasible"). Surface it as a solver
		// error instead so the planner's retry/fallback chain engages.
		err = fmt.Errorf("milp: node LP returned non-finite values (objective %v)", sol.Objective)
	}
	closed := true
	var down, up []boundChange
	var childBound float64
	var childBasis *simplex.Basis
	if err == nil && sol.Status == lp.StatusOptimal {
		incObj, haveInc := c.snapshotIncumbent()
		switch {
		case haveInc && sol.Objective >= incObj-c.pruneEps(incObj):
			// Pruned against the incumbent snapshot.
			c.mu.Lock()
			c.prunedBound = math.Min(c.prunedBound, sol.Objective)
			c.mu.Unlock()
		case func() bool { v, _ := c.mostFractional(sol.X); return v < 0 }():
			c.tryAccept(sol.X, sol.Objective, w.id+1)
		default:
			// Snapshot this node's optimal basis before the dive re-solves
			// other LPs on the same solver; both children inherit it.
			childBasis = w.sx.Basis()
			// Occasional re-dive deeper in the tree keeps the incumbent
			// fresh. nodeIdx comes from the shared counter, so the pacing
			// matches the sequential solver when Workers=1.
			if !c.opts.disableDiving && nodeIdx%64 == 0 {
				err = w.dive(nd.changes, sol)
			}
			if err == nil {
				down, up = w.branchChanges(nd, sol)
				childBound = sol.Objective
				closed = down == nil && up == nil
			}
		}
	}
	w.busy += time.Since(t0)
	return c.commit(w, sol, err, closed, down, up, nd.depth+1, childBound, childBasis)
}

// runWorker is a worker goroutine's main loop. A panic anywhere in the
// search is converted into a coordinator error so it never crosses the
// Solve API boundary.
func (c *coordinator) runWorker(w *worker, wg *sync.WaitGroup) {
	defer wg.Done()
	defer func() {
		if r := recover(); r != nil {
			c.mu.Lock()
			c.failLocked(fmt.Errorf("milp: worker %d panicked: %v", w.id, r))
			c.mu.Unlock()
		}
	}()
	for c.step(w) {
	}
}

// solve runs the search to its terminal state and builds the result:
// presolve and the warm starts, the sequential root phase, then the
// worker pool over the open tree. Every stop records the terminal state
// and finish builds the result from it; only a model with no integer
// variables returns the root LP's own solution, duals included.
//
//etlint:ignore lockguard root phase runs before worker fan-out and finish runs after wg.Wait joins every worker
func (c *coordinator) solve() (*lp.Solution, error) {
	// The working models are continuous; integrality is enforced by
	// branching. Presolve tightens the shared model's bounds (used for
	// incumbent verification) before the workers clone it.
	if !c.opts.disablePresolve {
		if _, infeasible := presolve(c.model, 10); infeasible {
			c.stop(lp.StatusInfeasible, math.Inf(1))
			return c.finish()
		}
	}
	// Each warm start is verified once: the feasible ones seed the
	// incumbent and are the stash every root cut must keep feasible.
	for _, ws := range c.opts.WarmStarts {
		if x := c.verify(ws); x != nil {
			c.stash = append(c.stash, x)
			c.install(x, 0)
		}
	}
	w0 := c.newWorker(0)
	t0 := time.Now()
	root, err := c.rootPhase(w0)
	w0.busy = time.Since(t0)
	switch {
	case err != nil:
		c.mu.Lock()
		c.failLocked(err)
		c.mu.Unlock()
	case c.done:
		// The root phase recorded the terminal state.
	case len(c.intVars) == 0:
		root.Nodes, root.Workers = 1, 1
		root.WallTime, root.WorkTime = time.Since(c.start), w0.busy
		return root, nil
	default:
		return c.finish(c.search(w0)...)
	}
	return c.finish(w0)
}

// rootPhase solves the root LP on w0, runs the cut rounds and the dive,
// and branches the root into the queue, returning the root LP solution.
// A root that ends the search (infeasible, unbounded, stopped at a limit
// or integral) records its terminal state instead. It runs before any
// other worker exists, so the cut set is identical at any worker count.
func (c *coordinator) rootPhase(w0 *worker) (*lp.Solution, error) {
	root, err := w0.solveWith(nil, nil)
	if err != nil {
		return nil, err
	}
	switch root.Status {
	case lp.StatusInfeasible, lp.StatusUnbounded:
		c.stop(root.Status, math.Inf(1))
		return root, nil
	case lp.StatusIterLimit:
		c.mu.Lock()
		c.limitLocked(root.Limit)
		c.mu.Unlock()
		return root, nil
	}
	if !finiteSolution(root) {
		return nil, fmt.Errorf("milp: root LP returned non-finite values (objective %v)", root.Objective)
	}
	if len(c.intVars) == 0 {
		return root, nil
	}
	if v, _ := c.mostFractional(root.X); v >= 0 && !c.opts.disableCuts {
		// Root cut rounds tighten a fractional root's relaxation before
		// the tree search.
		if root, err = c.rootCuts(w0, root); err != nil {
			return nil, err
		}
	}
	if v, _ := c.mostFractional(root.X); v < 0 {
		// The root LP optimum, with or without cuts, is integral: it is
		// optimal for the MILP, and its objective is the bound.
		c.tryAccept(root.X, root.Objective, 1)
		c.stop(lp.StatusOptimal, root.Objective)
		return root, nil
	}
	// The root's optimal basis seeds both first children; snapshot it
	// before the dive re-solves other LPs on the same solver.
	rootBasis := w0.sx.Basis()
	if !c.opts.disableDiving {
		if err := w0.dive(nil, root); err != nil {
			return nil, err
		}
	}
	down, up := w0.branchChanges(&node{}, root)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.flight[w0.id] = math.Inf(1) // the root leaves flight as its children enter the queue
	c.advanceBoundLocked(root.Objective)
	c.pushLocked(root.Objective, 1, down, rootBasis)
	c.pushLocked(root.Objective, 1, up, rootBasis)
	return root, nil
}

// stop records a terminal state reached by the sequential root phase.
func (c *coordinator) stop(status lp.Status, bound float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stopLocked(status, bound, "")
}

// search fans the open tree out over the worker pool, w0 and
// Options.Workers−1 fresh workers, and returns them once all have exited.
func (c *coordinator) search(w0 *worker) []*worker {
	workers := make([]*worker, c.opts.Workers)
	workers[0] = w0
	for i := 1; i < len(workers); i++ {
		workers[i] = c.newWorker(i)
	}
	var wg sync.WaitGroup
	for _, w := range workers {
		wg.Add(1)
		go c.runWorker(w, &wg)
	}
	wg.Wait()
	return workers
}

// finish builds the solve's result from the recorded terminal state once
// no worker runs: it folds the workers' iterations and busy time, fills
// the statistics, and derives status, limit, point and gap. The status
// is decided on the bound the search stopped at; the reported gap also
// counts the nodes pruned within tolerance, so "gap 0" means the tree
// closed, and a stop while the root was in flight, with no bound proven,
// reports +Inf.
//
//etlint:ignore lockguard called only while no worker runs: before fan-out or after wg.Wait joins every worker
func (c *coordinator) finish(workers ...*worker) (*lp.Solution, error) {
	for _, w := range workers {
		c.iterations += w.takeIterations()
		c.workTime += w.busy
	}
	if c.err != nil {
		return nil, c.err
	}
	sol := &lp.Solution{
		Status: c.finalStatus, Limit: c.limit, Iterations: c.iterations, Nodes: c.nodes,
		Workers: c.opts.Workers, PeakQueueDepth: c.peakQueue,
		WallTime: time.Since(c.start), WorkTime: c.workTime,
	}
	if c.nodes > 0 {
		sol.NodesPerWorker = c.nodesBy
	}
	switch {
	case sol.Status == lp.StatusInfeasible || sol.Status == lp.StatusUnbounded:
	case !c.haveInc && sol.Status == lp.StatusOptimal:
		return nil, fmt.Errorf("milp: internal: optimal finish without incumbent")
	case !c.haveInc:
		sol.Gap = math.Inf(1)
		if c.nodes == 0 && c.limit == lp.LimitIterations {
			// The root LP stalled with no incumbent to surrender: pass
			// its (StatusIterLimit, LimitIterations) pair through.
			sol.Status = lp.StatusIterLimit
		}
	default:
		sol.X = c.incumbent
		sol.Objective = c.incumbentObj
		// tol.RelGap guards the near-zero-incumbent case (max(1,·)
		// denominator) and maps a bound of −Inf to an honest +Inf.
		sol.Gap = tol.RelGap(c.incumbentObj, math.Min(c.finalBound, c.prunedBound))
		if sol.Status == lp.StatusNodeLimit && tol.RelGap(c.incumbentObj, c.finalBound) <= c.opts.GapTol {
			sol.Status, sol.Limit = lp.StatusOptimal, ""
		}
	}
	return sol, c.ctxErr
}

// finiteSolution reports whether an LP result is numerically sane: a
// finite objective and finite primal values. It is itself a validity
// probe of the raw payload — callers consult it before trusting sol.
//
//etlint:ignore stickyerr this function is the check; it inspects the raw payload to classify it
func finiteSolution(sol *lp.Solution) bool {
	if math.IsNaN(sol.Objective) || math.IsInf(sol.Objective, 0) {
		return false
	}
	for _, v := range sol.X {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// emitSolveEnd closes the trace stream for this solve with the terminal
// status, objective and search counters. Called once from SolveContext,
// after every terminal path, so each solve_start has exactly one
// matching solve_end.
func (c *coordinator) emitSolveEnd(sol *lp.Solution, err error) {
	tr := c.opts.Trace
	if tr == nil {
		return
	}
	e := obs.Event{Kind: obs.KindSolveEnd}
	if err != nil {
		e.Status = "error"
		e.Detail = err.Error()
	}
	if sol != nil {
		if sol.Status != 0 {
			e.Status = sol.Status.String()
		}
		e.Limit = sol.Limit
		e.Nodes = obs.Int(sol.Nodes)
		e.Iterations = sol.Iterations
		if sol.X != nil && !math.IsNaN(sol.Objective) && !math.IsInf(sol.Objective, 0) {
			e.Value = obs.Float64(sol.Objective)
		}
		e.Gap = obs.Float64(lp.JSONSafeGap(sol.Gap))
	}
	tr.Emit(e)
}

// foldMetrics records the solve's totals into the metrics registry: one
// call per solve, after the terminal state is known. Per-worker node
// counters sum to MetricMILPNodes whenever the tree search ran (they
// are simply absent for pure-LP pass-through solves, whose single root
// "node" no worker claimed). A solve that failed (sol nil) folds the
// coordinator's own totals, so the nodes its workers claimed before the
// error still count.
//
//etlint:ignore lockguard called once from SolveContext after the search has fully terminated
func (c *coordinator) foldMetrics(sol *lp.Solution) {
	m := c.opts.Metrics
	if m == nil {
		return
	}
	m.Add(obs.MetricMILPSolves, 1)
	m.SetGauge(obs.MetricMILPWorkers, float64(c.opts.Workers))
	m.MaxGauge(obs.MetricMILPPeakQueue, float64(c.peakQueue))
	nodes, wall, work := c.nodes, time.Since(c.start), c.workTime
	if sol != nil {
		nodes, wall, work = sol.Nodes, sol.WallTime, sol.WorkTime
	}
	m.Add(obs.MetricMILPNodes, int64(nodes))
	if c.nodes > 0 {
		for i, n := range c.nodesBy {
			if n > 0 {
				m.Add(obs.MetricMILPNodesWorkerPrefix+strconv.Itoa(i+1), int64(n))
			}
		}
	}
	m.Add(obs.MetricMILPWallMicros, wall.Microseconds())
	m.Add(obs.MetricMILPWorkMicros, work.Microseconds())
	// Cut counters fold only when the root separated something, so a
	// solve that never cut (a closed or integral root, a pure LP) keeps
	// the cut-free key set.
	if c.cutsSeparated > 0 {
		m.Add(obs.MetricMILPCutsSeparated, c.cutsSeparated)
	}
	if c.cutsActive > 0 {
		m.Add(obs.MetricMILPCutsActive, c.cutsActive)
	}
}
