package core

import (
	"context"
	"flag"
	"fmt"
	"math"
	"sort"
	"time"

	"github.com/etransform/etransform/internal/lp"
	"github.com/etransform/etransform/internal/milp"
	"github.com/etransform/etransform/internal/model"
)

// Options configure the planner.
type Options struct {
	// DR plans primary and secondary sites plus a shared single-failure
	// backup pool (§IV).
	DR bool
	// Omega is the business-impact parameter ω: the maximum fraction of
	// all application groups any single data center may host. Values ≤ 0
	// or ≥ 1 disable the cap.
	Omega float64
	// DedicatedBackups sizes DR pools for multiple concurrent failures:
	// every group gets its own backup servers (G_b = sum of demand routed
	// to b) instead of the shared single-failure pool (§IV-A).
	DedicatedBackups bool
	// CandidateK, when positive, restricts each group to its K cheapest
	// feasible data centers (for both primary and secondary roles). This
	// prunes columns on very large estates; the solve statistics record
	// it, and an infeasible pruned model is automatically retried
	// unpruned.
	CandidateK int
	// Deprecated: ignored. Identical application groups are always
	// merged into integer-count variables, an exact reformulation; the
	// field no longer selects anything and will be removed.
	Aggregate bool
	// ComputeShadowPrices solves the plain LP relaxation and records
	// each capacity row's dual value in Plan.CapacityShadow — the
	// relaxation's marginal worth of one more server slot per data
	// center. The integer decisions are not fixed: that would make every
	// capacity row's dual degenerate (see shadowPrices).
	ComputeShadowPrices bool
	// Solver passes through branch & bound options.
	Solver milp.Options
}

// Planner plans the transformation of one as-is state.
type Planner struct {
	state *model.AsIsState
	opts  Options
	// seedPlacement/seedSecondary hold a previous plan's assignment,
	// mapped to this state's indices by SeedPlan, to be encoded as the
	// first warm-start point of the next solve.
	seedPlacement []int
	seedSecondary []int
}

// Validate rejects a NaN ω and the solver options milp.Options.Validate
// rejects, before any work. New calls it; a daemon calls it once at
// start-up, before it accepts jobs.
func (o Options) Validate() error {
	if math.IsNaN(o.Omega) {
		return fmt.Errorf("core: omega (ω) is NaN; want a fraction in (0, 1), or a value ≤ 0 or ≥ 1 to disable the cap")
	}
	return o.Solver.Validate()
}

// RegisterFlags binds the planner's solve flags (-dr, -dedicated,
// -shadow, -omega, -candidates, -gap, -nodes, -timelimit, -membudget,
// -workers) to o's fields and sets their defaults. etransform and
// etserve share this one definition, so the same flags configure the
// same solve in both.
func (o *Options) RegisterFlags(fs *flag.FlagSet) {
	fs.BoolVar(&o.DR, "dr", false, "plan disaster recovery (secondary sites + shared backup pool)")
	fs.BoolVar(&o.DedicatedBackups, "dedicated", false, "with -dr: dedicated per-group backup servers (multi-failure planning) instead of the shared single-failure pool")
	fs.BoolVar(&o.ComputeShadowPrices, "shadow", false, "report capacity shadow prices (LP-relaxation duals per data center)")
	fs.Float64Var(&o.Omega, "omega", 0, "business-impact cap: max fraction of app groups per data center (0 disables)")
	fs.IntVar(&o.CandidateK, "candidates", 0, "restrict each group to its K cheapest candidate DCs (0 = all)")
	fs.Float64Var(&o.Solver.GapTol, "gap", 1e-3, "MILP relative optimality gap")
	fs.IntVar(&o.Solver.MaxNodes, "nodes", 20000, "branch & bound node limit")
	fs.DurationVar(&o.Solver.TimeLimit, "timelimit", 5*time.Minute, "wall-clock limit per solve")
	fs.Int64Var(&o.Solver.MemoryBytes, "membudget", 0, "open-node queue memory budget in bytes (0 = unlimited)")
	fs.IntVar(&o.Solver.Workers, "workers", 0, "branch & bound worker goroutines per solve (0 = all CPUs, 1 = deterministic)")
}

// New validates the options and the state and returns a Planner.
func New(state *model.AsIsState, opts Options) (*Planner, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if err := state.Validate(); err != nil {
		return nil, err
	}
	if opts.DR && len(state.Target.DCs) < 2 {
		return nil, fmt.Errorf("core: DR planning needs at least 2 target data centers, have %d", len(state.Target.DCs))
	}
	return &Planner{state: state, opts: opts}, nil
}

// Pin forces the group's primary placement (the admin iterative-
// modification interface of Figure 5): call, then Solve again.
func (p *Planner) Pin(groupID, dcID string) error {
	g := p.findGroup(groupID)
	if g == nil {
		return fmt.Errorf("core: unknown group %q", groupID)
	}
	if p.state.Target.DCIndex(dcID) < 0 {
		return fmt.Errorf("core: unknown target data center %q", dcID)
	}
	for _, f := range g.ForbiddenDCs {
		if f == dcID {
			return fmt.Errorf("core: group %q forbids data center %q", groupID, dcID)
		}
	}
	g.PinnedDC = dcID
	return nil
}

// Forbid excludes a target data center from a group's placements
// (primary and secondary).
func (p *Planner) Forbid(groupID, dcID string) error {
	g := p.findGroup(groupID)
	if g == nil {
		return fmt.Errorf("core: unknown group %q", groupID)
	}
	if p.state.Target.DCIndex(dcID) < 0 {
		return fmt.Errorf("core: unknown target data center %q", dcID)
	}
	if g.PinnedDC == dcID {
		return fmt.Errorf("core: group %q is pinned to data center %q", groupID, dcID)
	}
	for _, f := range g.ForbiddenDCs {
		if f == dcID {
			return nil
		}
	}
	g.ForbiddenDCs = append(g.ForbiddenDCs, dcID)
	return nil
}

func (p *Planner) findGroup(id string) *model.AppGroup {
	for i := range p.state.Groups {
		if p.state.Groups[i].ID == id {
			return &p.state.Groups[i]
		}
	}
	return nil
}

// SeedPlan registers a previously computed plan as the starting point of
// the next solve: its assignment is encoded as a feasible incumbent and
// handed to branch & bound ahead of the heuristic warm starts, so a
// re-plan after a small state or option change prunes against yesterday's
// answer from node zero instead of rediscovering it. The seed only
// accelerates — the solver still proves optimality (or its gap) against
// the current model, and a seed the new model rejects is simply unused.
// Passing nil clears the seed.
//
// The plan must speak this state's vocabulary: every group covered, every
// named data center present in the target estate (secondary sites too,
// when the planner runs with DR). Vocabulary errors are reported here, at
// registration, rather than surfacing mid-solve.
func (p *Planner) SeedPlan(prev *model.Plan) error {
	if prev == nil {
		p.seedPlacement, p.seedSecondary = nil, nil
		return nil
	}
	placement, secondary, err := p.assignmentIndices(prev)
	if err != nil {
		return fmt.Errorf("core: seed plan: %w", err)
	}
	p.seedPlacement, p.seedSecondary = placement, secondary
	return nil
}

// BuildModel constructs the MILP without solving it, for inspection or
// export: the model's WriteLP writes it in CPLEX LP format, the same
// interchange the paper's transformation module hands to its
// optimization engine.
func (p *Planner) BuildModel() (*lp.Model, error) {
	b, err := p.build(p.opts.CandidateK)
	if err != nil {
		return nil, err
	}
	return b.m, nil
}

// Solve builds the MILP, solves it, and decodes the to-be plan. The
// plan's cost breakdown comes from the shared evaluator in package model;
// a self-check verifies the LP objective agrees with it.
func (p *Planner) Solve() (*model.Plan, error) {
	return p.SolveContext(context.Background())
}

// SolveContext is Solve with cancellation. The context is threaded into
// the branch & bound search; on cancellation no plan is returned (plans
// must certify end to end) and the error wraps ctx.Err(), so
// errors.Is(err, context.Canceled) works. Options.Solver.TimeLimit
// remains the graceful way to bound a solve and still get a plan.
//
// Solves run through the resilient pipeline (see fallback.go): when the
// exact MILP stage fails — a solver error, a corrupted result that fails
// certification — it is retried once on a perturbed trajectory and then
// replaced by the LP-rounding fallback and, last, by the cheapest warm
// start that certifies. Plans produced by anything other than a clean
// first-attempt exact solve carry a machine-readable report in
// Plan.Stats.Degradation.
func (p *Planner) SolveContext(ctx context.Context) (*model.Plan, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	plan, err := p.solvePipeline(ctx, p.opts.CandidateK)
	if err != nil && p.opts.CandidateK > 0 {
		if _, pruned := err.(*prunedInfeasibleError); pruned {
			// Candidate pruning can cut off every feasible packing; retry
			// with full candidate sets before declaring defeat.
			plan, err = p.solvePipeline(ctx, 0)
		}
	}
	if plan != nil && err == nil {
		// Fold the solve's counters into the plan so -metrics and the
		// property tests see the registry state as of this plan. nil when
		// collection is off, keeping default output byte-identical.
		plan.Stats.Metrics = p.opts.Solver.Metrics.Snapshot()
	}
	return plan, err
}

// prunedInfeasibleError marks an infeasibility that may be an artifact of
// candidate pruning.
type prunedInfeasibleError struct{ inner error }

func (e *prunedInfeasibleError) Error() string { return e.inner.Error() }
func (e *prunedInfeasibleError) Unwrap() error { return e.inner }

// sortedIndices returns 0..n-1 ordered by the given cost function
// (ascending), tie-broken by index for determinism.
func sortedIndices(n int, cost func(int) float64) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return cost(idx[a]) < cost(idx[b]) })
	return idx
}
