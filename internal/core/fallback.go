package core

import (
	"context"
	"fmt"
	"math"
	"time"

	"github.com/etransform/etransform/internal/certify"
	"github.com/etransform/etransform/internal/lp"
	"github.com/etransform/etransform/internal/milp"
	"github.com/etransform/etransform/internal/model"
	"github.com/etransform/etransform/internal/obs"
	"github.com/etransform/etransform/internal/tol"
)

// This file implements the resilient solve pipeline: a chain of solver
// stages that degrade gracefully when the exact MILP fails or runs out
// of budget.
//
//	stage 1  exact branch & bound, with one retry on a perturbed
//	         branching order under Bland's pivoting rule (both selected
//	         by milp.Options.PerturbSeed);
//	stage 2  LP-relaxation rounding with greedy repair, the relaxation
//	         solved through milp.SolveContext under stage 1's options;
//	stage 3  the cheapest warm start that certifies: the seed plan or an
//	         LP-free heuristic point (warm.go), all encoded before
//	         stage 1, so the last stage neither solves an LP nor runs
//	         the heuristic again.
//
// Every stage's product — including the exact solver's — passes through
// internal/certify before it is decoded, so no stage can ship an
// infeasible plan. Genuine model outcomes (infeasible, unbounded) and
// context cancellation stop the chain immediately: they are answers, not
// failures to route around. A plan produced by anything other than a
// clean first-attempt exact solve carries a DegradationReport in
// Plan.Stats.Degradation naming the producing stage, the budget
// dimension that tripped (if any), and the full attempt log.

// retrySeed deterministically re-seeds the branching order for the exact
// stage's second attempt, so failure injections tied to pivot or node
// counts land elsewhere on the retry trajectory.
const retrySeed = 7919

// solvePipeline runs the chain for one candidate-pruning level.
func (p *Planner) solvePipeline(ctx context.Context, candidateK int) (*model.Plan, error) {
	b, err := p.build(candidateK)
	if err != nil {
		return nil, err
	}
	report := &lp.DegradationReport{Gap: lp.UnknownGap}
	warm := b.warmStarts()
	if x, ok := b.seedPoint(); ok {
		// A registered previous plan outranks the heuristic candidates:
		// it goes first so re-planning starts from yesterday's answer.
		warm = append([][]float64{x}, warm...)
	}

	// Per-attempt observability spans: stage_start/stage_end trace
	// events bracketing every try, and per-stage wall-clock counters
	// whose sum stays within the pipeline total. All hooks are nil-safe
	// no-ops when observability is off.
	tr := p.opts.Solver.Trace
	met := p.opts.Solver.Metrics
	pipeStart := time.Now()
	defer func() {
		met.Add(obs.MetricPipelineMicros, time.Since(pipeStart).Microseconds())
	}()
	span := func(stage string, attempt int, t0 time.Time) func(outcome, detail string) {
		if tr != nil {
			tr.Emit(obs.Event{Kind: obs.KindStageStart, Name: stage, Attempt: attempt})
		}
		return func(outcome, detail string) {
			met.Add(obs.MetricStageAttempts, 1)
			met.Add(obs.MetricStageMicrosPrefix+stage, time.Since(t0).Microseconds())
			if tr != nil {
				tr.Emit(obs.Event{
					Kind: obs.KindStageEnd, Name: stage, Attempt: attempt,
					Status: outcome, Detail: detail,
				})
			}
		}
	}

	var firstErr error
	fail := func(stage string, attempt int, t0 time.Time, err error) {
		report.Attempts = append(report.Attempts, lp.StageAttempt{
			Stage: stage, Attempt: attempt, Outcome: "failed",
			Error: err.Error(), Millis: time.Since(t0).Milliseconds(),
		})
		if firstErr == nil {
			firstErr = err
		}
	}

	// Stage 1: exact MILP.
	for attempt := 1; attempt <= 2; attempt++ {
		solver := p.opts.Solver
		solver.WarmStarts = warm
		if attempt > 1 {
			solver.PerturbSeed = retrySeed
		}
		t0 := time.Now()
		end := span(lp.StageExact, attempt, t0)
		sol, err := milp.SolveContext(ctx, b.m, &solver)
		if err != nil {
			end("error", err.Error())
			if ctx.Err() != nil {
				// Cancellation is the caller's decision, not a solver
				// failure; the chain has no budget left to spend.
				return nil, fmt.Errorf("core: solving %s: %w", b.m.Name, err)
			}
			fail(lp.StageExact, attempt, t0, err)
			continue
		}
		end(sol.Status.String(), "")
		switch sol.Status {
		case lp.StatusInfeasible:
			// A genuine answer, not a failure: no stage can place groups
			// the constraints exclude.
			err := fmt.Errorf("core: no feasible plan: the application groups cannot be packed into the target data centers under the given constraints")
			if candidateK > 0 {
				return nil, &prunedInfeasibleError{inner: err}
			}
			return nil, err
		case lp.StatusUnbounded:
			return nil, fmt.Errorf("core: internal: consolidation MILP unbounded")
		}
		if sol.X == nil {
			// The budget expired before any incumbent existed. Retrying the
			// same budget would starve the same way; escalate directly.
			err := fmt.Errorf("core: solver stopped (%v) before finding any feasible plan", sol.Status)
			fail(lp.StageExact, attempt, t0, err)
			report.Limit = sol.Limit
			break
		}
		plan, err := b.finishSolution(sol)
		if err != nil {
			// Certification or decode failure: the solver's point cannot be
			// trusted — exactly what the perturbed retry exists for.
			fail(lp.StageExact, attempt, t0, err)
			continue
		}
		rec := lp.StageAttempt{
			Stage: lp.StageExact, Attempt: attempt, Outcome: "ok",
			Status: sol.Status.String(), Millis: time.Since(t0).Milliseconds(),
		}
		if sol.Status == lp.StatusOptimal {
			if attempt == 1 && len(report.Attempts) == 0 {
				// Clean first-attempt exact solve: no report at all, so the
				// fault-free path stays bit-identical to a plain solve.
				return plan, nil
			}
			report.Attempts = append(report.Attempts, rec)
			report.Stage = lp.StageExact
			report.StageIndex = 1
			report.Gap = sol.Gap
			plan.Stats.Degradation = report
			return plan, nil
		}
		// Feasible but not proven optimal: a budget dimension ended the
		// search early. Surrender the certified incumbent with its gap.
		rec.Outcome = "degraded"
		report.Attempts = append(report.Attempts, rec)
		report.Degraded = true
		report.Stage = lp.StageExact
		report.StageIndex = 1
		report.Limit = sol.Limit
		report.Gap = lp.JSONSafeGap(sol.Gap)
		report.Reason = degradeReason(sol)
		plan.Stats.Degradation = report
		return plan, nil
	}

	// Stages 2 and 3 share one attempt loop: LP-relaxation rounding with
	// greedy repair, then the cheapest warm start that certifies.
	fallbacks := []struct {
		stage string
		run   func() (*model.Plan, error)
	}{
		{lp.StageRounding, func() (*model.Plan, error) { return b.lpRoundingPlan(ctx) }},
		{lp.StageGreedy, func() (*model.Plan, error) { return b.cheapestWarmPlan(warm) }},
	}
	for k, f := range fallbacks {
		t0 := time.Now()
		end := span(f.stage, 1, t0)
		plan, err := f.run()
		if err == nil {
			end("ok", "")
			report.Attempts = append(report.Attempts, lp.StageAttempt{
				Stage: f.stage, Attempt: 1, Outcome: "ok",
				Millis: time.Since(t0).Milliseconds(),
			})
			return p.degradedPlan(plan, report, f.stage, k+2, firstErr), nil
		}
		end("failed", err.Error())
		fail(f.stage, 1, t0, err)
		if ctx.Err() != nil {
			return nil, fmt.Errorf("core: solving %s: %w", b.m.Name, ctx.Err())
		}
	}
	return nil, fmt.Errorf("core: all solve stages failed (exact, lp-rounding, greedy); first failure: %w", firstErr)
}

// degradedPlan attaches the degradation report to a fallback-produced
// plan.
func (p *Planner) degradedPlan(plan *model.Plan, report *lp.DegradationReport, stage string, index int, cause error) *model.Plan {
	report.Degraded = true
	report.Stage = stage
	report.StageIndex = index
	report.Gap = lp.UnknownGap
	report.Reason = fmt.Sprintf("exact MILP stage failed (%v); plan produced by the %s fallback", cause, stage)
	plan.Stats.Degradation = report
	return plan
}

// degradeReason renders the one-line cause for an exact solve that
// stopped at a budget limit with a certified incumbent.
func degradeReason(sol *lp.Solution) string {
	limit := sol.Limit
	if limit == "" {
		limit = sol.Status.String()
	}
	if math.IsInf(sol.Gap, 1) {
		return fmt.Sprintf("exact search stopped at the %s limit before proving any bound", limit)
	}
	return fmt.Sprintf("exact search stopped at the %s limit with a certified gap of %.4g", limit, sol.Gap)
}

// finishSolution certifies sol against the full MILP and decodes it into
// a plan. Every plan the planner returns — exact or fallback — passes
// through here, so a solver bug cannot silently ship an infeasible plan.
// The tolerance matches the incumbent-acceptance tolerance used inside
// branch & bound.
func (b *builder) finishSolution(sol *lp.Solution) (*model.Plan, error) {
	cert, err := certify.CheckSolution(b.m, sol, &certify.Options{FeasTol: tol.Accept, IntTol: tol.Accept})
	if err != nil {
		return nil, fmt.Errorf("core: certifying %s: %w", b.m.Name, err)
	}
	if cert != nil {
		if err := cert.Err(); err != nil {
			return nil, fmt.Errorf("core: plan for %s failed certification: %w", b.m.Name, err)
		}
	}
	plan, err := b.decode(sol)
	if err != nil {
		return nil, err
	}
	if cert != nil {
		plan.Stats.Certificate = cert.Summary()
	}
	return plan, nil
}

// planFromPoint encodes a concrete (placement, secondary) assignment as
// a full MILP point and hands it to planFromX.
func (b *builder) planFromPoint(placement, secondary []int) (*model.Plan, error) {
	x, ok := b.encodePoint(placement, secondary)
	if !ok {
		return nil, fmt.Errorf("core: assignment for %s needs a column pruned out of the model", b.m.Name)
	}
	return b.planFromX(x)
}

// planFromX certifies a full MILP point and decodes the plan. The
// synthetic solution carries no dual bound, so Gap is unknown.
func (b *builder) planFromX(x []float64) (*model.Plan, error) {
	sol := &lp.Solution{Status: lp.StatusFeasible, X: x, Objective: b.m.Objective(x), Gap: lp.UnknownGap}
	return b.finishSolution(sol)
}

// cheapestWarmPlan is stage 3: the cheapest of the warm starts (the
// seed plan and the heuristic points) that certifies. It solves no LP,
// so it stands when every simplex result is untrustworthy.
func (b *builder) cheapestWarmPlan(warm [][]float64) (*model.Plan, error) {
	err := fmt.Errorf("core: the LP-free heuristics found no feasible assignment")
	for _, i := range sortedIndices(len(warm), func(i int) float64 { return b.m.Objective(warm[i]) }) {
		plan, perr := b.planFromX(warm[i])
		if perr == nil {
			return plan, nil
		}
		err = perr
	}
	return nil, err
}

// lpRoundingPlan is stage 2: solve the continuous relaxation, round each
// group onto the site carrying the largest fractional mass (repairing
// capacity greedily, largest groups first), polish with local search,
// and certify. The relaxation has no integer variables, so its milp
// solve ends at the root LP, under stage 1's time limit, fault harness
// and observers; milp rejects a non-finite root point.
func (b *builder) lpRoundingPlan(ctx context.Context) (*model.Plan, error) {
	rel, err := milp.SolveContext(ctx, b.m.Relax(), &b.p.opts.Solver)
	if err != nil {
		return nil, fmt.Errorf("core: lp-rounding relaxation: %w", err)
	}
	if rel.Status != lp.StatusOptimal {
		return nil, fmt.Errorf("core: lp-rounding relaxation ended %v", rel.Status)
	}
	placement, secondary, ok := b.roundedPlacement(rel.X)
	if !ok {
		return nil, fmt.Errorf("core: lp-rounding could not repair the fractional point into a feasible packing")
	}
	if b.improvable() {
		b.localImprove(placement, secondary, 2)
	}
	return b.planFromPoint(placement, secondary)
}

// roundedPlacement turns a fractional relaxation point into a concrete
// assignment: groups (largest first) go to the feasible site whose
// columns carry the most LP mass, ties broken by cost; secondaries
// likewise against the chosen primary's columns, then pool capacity is
// repaired.
func (b *builder) roundedPlacement(x []float64) (placement, secondary []int, ok bool) {
	s := b.s
	n := len(s.Target.DCs)
	dr := b.p.opts.DR

	massAt := func(i, j int) float64 {
		t := b.memberType[i]
		if !dr {
			if v, has := b.varOf[[3]int{t, j, -1}]; has {
				return x[v]
			}
			return 0
		}
		m := 0.0
		for sec := 0; sec < n; sec++ {
			if v, has := b.varOf[[3]int{t, j, sec}]; has {
				m += x[v]
			}
		}
		return m
	}

	load := make([]int, n)
	placement = make([]int, len(s.Groups))
	order := sortedIndices(len(s.Groups), func(i int) float64 { return -float64(s.Groups[i].Servers) })
	for _, i := range order {
		g := &s.Groups[i]
		best := -1
		bestMass := math.Inf(-1)
		bestCost := math.Inf(1)
		for j := 0; j < n; j++ {
			if !b.primaryAvailable(i, j) || load[j]+g.Servers > s.Target.DCs[j].CapacityServers {
				continue
			}
			m := massAt(i, j)
			c := b.primaryCost(g, j)
			if m > bestMass+tol.Tie || (tol.Same(m, bestMass) && c < bestCost) {
				best, bestMass, bestCost = j, m, c
			}
		}
		if best < 0 {
			return nil, nil, false
		}
		placement[i] = best
		load[best] += g.Servers
	}
	if !dr {
		return placement, nil, true
	}

	secondary = make([]int, len(s.Groups))
	for i := range s.Groups {
		g := &s.Groups[i]
		t := b.memberType[i]
		best := -1
		bestMass := math.Inf(-1)
		bestCost := math.Inf(1)
		for j := 0; j < n; j++ {
			if j == placement[i] || !b.feasibleSecondary(g, j) || !b.hasColumn(i, placement[i], j) {
				continue
			}
			m := 0.0
			if v, has := b.varOf[[3]int{t, placement[i], j}]; has {
				m = x[v]
			}
			c := b.secondaryCost(g, j)
			if m > bestMass+tol.Tie || (tol.Same(m, bestMass) && c < bestCost) {
				best, bestMass, bestCost = j, m, c
			}
		}
		if best < 0 {
			return nil, nil, false
		}
		secondary[i] = best
	}
	if !b.repairPools(placement, secondary) {
		return nil, nil, false
	}
	return placement, secondary, true
}

// poolRank orders target data centers by the cost of hosting one shared
// backup server (purchase capital plus marginal space and run cost).
func (b *builder) poolRank() []int {
	s := b.s
	return sortedIndices(len(s.Target.DCs), func(j int) float64 {
		return s.Params.DRServerCost + s.Target.DCs[j].SpaceCost.UnitCostAt(0) + model.ServerMonthlyCost(&s.Target.DCs[j], &s.Params)
	})
}
