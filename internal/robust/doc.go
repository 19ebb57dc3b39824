// Package robust is the Monte Carlo robustness harness: it answers "how
// good is a consolidation plan when the inputs are distributions, not
// point estimates?"
//
// A batch perturbs the as-is state N times under a declared
// model.UncertaintySpec (power price, traffic, WAN tariffs, latency
// jitter — each a normal/lognormal/uniform/triangular marginal with
// optional cross-data-center correlation), solves every sampled scenario
// to a certified optimum through the resilient pipeline, and reports
// three views of plan stability:
//
//   - the nominal plan's regret distribution — its cost under each
//     sample minus that sample's own certified optimum;
//   - per-decision flip frequencies — which group→DC placements the
//     sampled optima move, how often, and to where;
//   - a robustness-ranked plan selection — the nominal plan and every
//     distinct per-sample optimum, re-scored across all samples and
//     ranked by CVaR-α regret (expected regret, then nominal cost, as
//     tie-breaks), each candidate independently re-certified against
//     the nominal MILP before it may be chosen.
//
// Replay is a hard guarantee, in the same spirit as the warm-start
// equivalence suites: sample i's inputs come from a
// dedicated RNG seeded by mix(seed, i), per-sample solves run the
// deterministic Workers=1 branch & bound, and results are folded in
// sample-index order. The harness worker count only schedules work, so
// one (state, spec, seed, N, α) tuple produces a byte-identical report
// at any -workers value. The report schema (obs.RobustReport,
// "etransform-robust/v1") carries no clocks or host fields for exactly
// this reason.
//
// Failure isolation: a sample whose solve panics, degrades to a
// fallback stage, or exhausts its budget is recorded with its
// degradation stage/reason and excluded from the regret statistics —
// it can never abort the batch or silently pollute the distribution.
package robust
