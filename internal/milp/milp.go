package milp

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"github.com/etransform/etransform/internal/lp"
	"github.com/etransform/etransform/internal/obs"
	"github.com/etransform/etransform/internal/resilience/faultinject"
	"github.com/etransform/etransform/internal/simplex"
	"github.com/etransform/etransform/internal/tol"
)

// Options control a branch & bound solve. The zero value applies
// defaults suitable for the planner's models.
type Options struct {
	// GapTol is the relative optimality gap at which the search stops.
	// Default tol.Gap (effectively exact).
	GapTol float64
	// MaxNodes caps explored nodes. Default 200000.
	MaxNodes int
	// TimeLimit caps wall-clock time; 0 means no limit. Hitting it is a
	// graceful stop: the best incumbent is returned with Status
	// lp.StatusNodeLimit and no error (contrast with context
	// cancellation, which returns an error). When the context passed to
	// SolveContext also carries a deadline, the earlier of the two wins,
	// and the terminal status is deterministic: a context deadline that
	// is strictly earlier than the option limit always yields
	// lp.StatusCanceled with context.DeadlineExceeded, while an option
	// limit at or before the context deadline always yields the graceful
	// lp.StatusNodeLimit — regardless of scheduling jitter at expiry.
	TimeLimit time.Duration
	// MemoryBytes caps the estimated memory held by *open* nodes (the
	// frontier queue — the only part of the search whose footprint grows
	// without bound). 0 means no memory budget. The estimate counts node
	// structs, their bound-change lists and their parent basis
	// snapshots, not the fixed per-worker model clones. Hitting it is
	// the same graceful stop as MaxNodes and TimeLimit: the best
	// incumbent is surrendered with its certified gap, Status
	// lp.StatusNodeLimit, and Solution.Limit naming the limit that
	// tripped.
	MemoryBytes int64
	// PerturbSeed, when nonzero, deterministically permutes the order
	// integer variables are scanned for branching (and therefore the
	// whole tree shape) and prices every LP of the solve with Bland's
	// rule. The fallback pipeline uses it to retry a failed solve on a
	// different — but replayable — search trajectory. 0 keeps the
	// natural model order and the default pricing.
	PerturbSeed int64
	// Inject, when non-nil, arms the deterministic fault-injection
	// harness at every site a solve reaches: worker panics and forced
	// deadline expiry in the search, and pivot failures, stalls and
	// corrupted results in every LP it runs, the root LP of a model
	// with no integer variables included. Production callers leave it
	// nil.
	Inject *faultinject.Injector
	// WarmStarts are candidate feasible points (len = model variables)
	// supplied by the caller; each feasible one seeds the incumbent
	// before search begins. Infeasible candidates are ignored.
	WarmStarts [][]float64
	// Deprecated: ignored. Every node LP and dive pass is warm-started
	// from its parent's optimal basis (simplex.Solver.SolveFrom, which
	// falls back to the all-slack start when the basis is stale); the
	// field no longer selects anything and will be removed.
	ReuseBasis bool
	// Trace, when non-nil, receives structured solve events: solve
	// start/end, incumbent installs, global-bound improvements, plus the
	// per-LP phase events from the simplex layer (the tracer is handed
	// down to the node-LP engines). Events are totally ordered by the
	// tracer; at Workers=1 the stream is deterministic.
	Trace *obs.Tracer
	// Metrics, when non-nil, receives the solve's counters and gauges
	// (nodes, per-worker node counts, incumbents, bound improvements,
	// wall/work time) and is handed down to the simplex engines for
	// their pivot counters. Production callers leave both nil: every
	// instrumentation site is then a single pointer comparison.
	Metrics *obs.Metrics
	// Workers is the number of branch & bound worker goroutines that
	// pull nodes from the shared best-bound queue. 0 selects
	// runtime.NumCPU(). Workers=1 runs the fully sequential search and
	// is bit-for-bit deterministic (identical node and iteration counts
	// across runs). Any worker count yields the same certified objective
	// within GapTol; see the package documentation's determinism
	// argument.
	Workers int

	// disableCuts turns off root cut separation, disableDiving the
	// diving primal heuristic, and disablePresolve the bound-tightening
	// presolve pass. Only this package's tests set them: the cuts-off
	// search is the reference the cut equivalence suites compare
	// against, and tests of the node loop use all three to keep a small
	// model from closing at the root.
	disableCuts     bool
	disableDiving   bool
	disablePresolve bool
}

// Validate rejects option values no default repairs. A NaN GapTol
// passes the "≤ 0 means default" test and then fails every gap
// comparison, so the search would run to its node limit; an infinite
// one would prune every node. A nil o is valid.
func (o *Options) Validate() error {
	if o != nil && (math.IsNaN(o.GapTol) || math.IsInf(o.GapTol, 0)) {
		return fmt.Errorf("milp: GapTol is %v; want a finite relative gap", o.GapTol)
	}
	return nil
}

func (o *Options) withDefaults() Options {
	out := Options{}
	if o != nil {
		out = *o
	}
	if out.GapTol <= 0 {
		out.GapTol = tol.Gap
	}
	if out.MaxNodes <= 0 {
		out.MaxNodes = 200000
	}
	if out.Workers <= 0 {
		out.Workers = runtime.NumCPU()
	}
	return out
}

// boundChange is one tightened bound along a branch.
type boundChange struct {
	v      lp.VarID
	lo, hi float64
}

// node is one open branch & bound node.
type node struct {
	bound   float64 // parent LP objective: lower bound for the subtree
	changes []boundChange
	depth   int
	seq     int // FIFO tie-break so the claim order is total
	// basis is the parent LP's optimal basis (shared by both siblings;
	// a Basis is immutable). nil — the parent's LP left no snapshotable
	// basis — means the node LP starts cold.
	basis *simplex.Basis
}

type nodeQueue []*node

func (q nodeQueue) Len() int { return len(q) }
func (q nodeQueue) Less(i, j int) bool {
	if !tol.Same(q[i].bound, q[j].bound) {
		return q[i].bound < q[j].bound
	}
	return q[i].seq < q[j].seq
}
func (q nodeQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *nodeQueue) Push(x any)   { *q = append(*q, x.(*node)) }
func (q *nodeQueue) Pop() any {
	old := *q
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return it
}

// Solve runs branch & bound on the model. Variables marked Binary or
// Integer are enforced integral; continuous variables are free to take
// fractional values. The returned solution's Gap field reports the final
// relative optimality gap (0 when proven optimal).
func Solve(model *lp.Model, opts *Options) (*lp.Solution, error) {
	return SolveContext(context.Background(), model, opts)
}

// SolveContext is Solve with cancellation. The context is observed
// between nodes; on cancellation the returned solution carries the best
// incumbent found so far (Status lp.StatusCanceled, X nil when no
// incumbent exists) alongside ctx.Err(), so callers can salvage a
// partial result. A nil ctx is treated as context.Background().
func SolveContext(ctx context.Context, model *lp.Model, opts *Options) (*lp.Solution, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := model.Err(); err != nil {
		return nil, fmt.Errorf("milp: invalid model: %w", err)
	}
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	o := opts.withDefaults()
	c := newCoordinator(ctx, o, model.Clone())
	for j := 0; j < model.NumVars(); j++ {
		if model.Var(lp.VarID(j)).Type != lp.Continuous {
			c.intVars = append(c.intVars, lp.VarID(j))
		}
	}
	if o.PerturbSeed != 0 {
		// Deterministically re-seed the branching order: ties in the
		// most-fractional rule resolve to different variables, steering
		// the search onto a different — but replayable — trajectory.
		rng := rand.New(rand.NewSource(o.PerturbSeed))
		rng.Shuffle(len(c.intVars), func(i, j int) {
			c.intVars[i], c.intVars[j] = c.intVars[j], c.intVars[i]
		})
	}
	// Unify the option wall limit with the context deadline: the
	// earliest wins, and *which* configured source is earliest decides
	// the terminal status up front (StatusNodeLimit for option limits,
	// StatusCanceled for a strictly earlier context deadline), so expiry
	// races cannot flip the outcome between runs.
	if o.TimeLimit > 0 {
		c.deadline = c.start.Add(o.TimeLimit)
	}
	if ctxDeadline, ok := ctx.Deadline(); ok {
		if c.deadline.IsZero() || ctxDeadline.Before(c.deadline) {
			c.deadline = ctxDeadline
			c.deadlineIsCtx = true
		}
	}
	// Every LP of the solve (root, cut rounds, dives, node LPs) runs
	// under these simplex options, built from the solve's own: the
	// effective wall deadline, so a single long LP cannot overrun the
	// solve-wide budget; the fault harness, so the simplex sites (pivot,
	// corrupt, stall) fire inside the LPs too; the observers, so the LPs
	// fold their pivot counters and phase events into the solve-wide
	// tracer/registry; and Bland's rule on a perturbed retry.
	c.lpOpts = simplex.Options{
		Bland:    o.PerturbSeed != 0,
		Deadline: c.deadline,
		Inject:   o.Inject,
		Trace:    o.Trace,
		Metrics:  o.Metrics,
	}
	if o.Inject != nil && (o.Trace != nil || o.Metrics != nil) {
		// Let the harness report firings to the observability layer.
		o.Inject.Observe(o.Trace, o.Metrics)
	}
	if o.Trace != nil {
		o.Trace.Emit(obs.Event{
			Kind: obs.KindSolveStart, Name: model.Name,
			Detail: fmt.Sprintf("rows=%d cols=%d int=%d workers=%d",
				model.NumRows(), model.NumVars(), len(c.intVars), o.Workers),
		})
	}
	sol, err := c.solve()
	c.emitSolveEnd(sol, err)
	c.foldMetrics(sol)
	return sol, err
}
