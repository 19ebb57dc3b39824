package lp

import "math"

// Limit names, recorded in Solution.Limit when a budget dimension ends a
// search before optimality is proven. This is the single authoritative
// set: Solution.Limit and DegradationReport.Limit speak these strings
// and no others, and branch & bound names each of its limits
// (milp.Options MaxNodes, TimeLimit and MemoryBytes) with one of them.
const (
	// LimitWallClock means a wall-clock budget expired: the solve-wide
	// deadline in branch & bound, or Options.Deadline inside a simplex
	// solve.
	LimitWallClock = "wall-clock"
	// LimitNodes means the branch & bound node budget was exhausted.
	LimitNodes = "nodes"
	// LimitMemory means the open-node memory estimate exceeded its budget.
	LimitMemory = "memory"
	// LimitIterations means a simplex solve hit its iteration limit
	// (directly, or inside a branch & bound node LP).
	LimitIterations = "iterations"
)

// Limits returns every Limit* constant, in a fixed order — handy for
// tests sweeping the full budget-dimension set.
func Limits() []string {
	return []string{LimitWallClock, LimitNodes, LimitMemory, LimitIterations}
}

// ValidLimit reports whether the (status, limit) pair is one a solver in
// this repository can actually produce:
//
//   - StatusIterLimit pairs with LimitIterations or LimitWallClock (a
//     simplex solve stopped by its own iteration budget or deadline,
//     possibly passed through by branch & bound from a root LP that
//     stopped before any incumbent existed);
//   - StatusNodeLimit pairs with exactly one of the four dimensions
//     (branch & bound's graceful budget stop always names what tripped,
//     including a node LP's iteration limit surrendered solve-wide);
//   - every other status carries an empty Limit.
func ValidLimit(status Status, limit string) bool {
	switch status {
	case StatusIterLimit:
		return limit == LimitIterations || limit == LimitWallClock
	case StatusNodeLimit:
		return limit == LimitWallClock || limit == LimitNodes ||
			limit == LimitMemory || limit == LimitIterations
	default:
		return limit == ""
	}
}

// StageAttempt records one attempt of one stage of the fallback solver
// chain: which stage ran, how it ended, and how long it took. The solve
// pipeline appends an attempt per try (including perturbed retries), so
// a degraded plan carries the full causal chain of what failed first.
type StageAttempt struct {
	// Stage is the chain stage name ("exact-milp", "lp-rounding",
	// "greedy").
	Stage string `json:"stage"`
	// Attempt is the 1-based attempt number within the stage (attempt 2
	// is the retry with perturbed branching and Bland's rule).
	Attempt int `json:"attempt"`
	// Outcome is "ok", "degraded" (feasible but not proven optimal) or
	// "failed".
	Outcome string `json:"outcome"`
	// Error is the failure reason when Outcome is "failed".
	Error string `json:"error,omitempty"`
	// Status is the solver status string when a solve finished.
	Status string `json:"status,omitempty"`
	// Millis is the attempt's elapsed wall-clock time.
	Millis int64 `json:"millis"`
}

// DegradationReport is the machine-readable account of how a plan was
// produced by the resilient solve pipeline: which fallback stage
// delivered it, why earlier stages failed, and which budget dimension
// (if any) tripped. A nil report (the common case) means the exact MILP
// stage succeeded on its first attempt with no budget pressure.
type DegradationReport struct {
	// Degraded reports that the plan did NOT come from a clean
	// first-attempt exact solve: either a fallback stage produced it, or
	// a budget limit ended the exact search early.
	Degraded bool `json:"degraded"`
	// Stage names the chain stage that produced the final plan.
	Stage string `json:"stage"`
	// StageIndex is the 1-based position of Stage in the chain
	// (1 exact-milp, 2 lp-rounding, 3 greedy).
	StageIndex int `json:"stage_index"`
	// Reason is a one-line human-readable cause of the degradation
	// (empty when Degraded is false).
	Reason string `json:"reason,omitempty"`
	// Limit names the budget dimension that ended the exact search
	// (LimitWallClock, LimitNodes, LimitMemory, LimitIterations), empty
	// when no limit tripped.
	Limit string `json:"limit,omitempty"`
	// Gap is the certified relative optimality gap of the delivered
	// plan, UnknownGap when no bound is known (fallback stages prove no
	// bound).
	Gap float64 `json:"gap"`
	// Attempts is the full attempt log across all stages, in order.
	Attempts []StageAttempt `json:"attempts,omitempty"`
}

// UnknownGap is the JSON-safe encoding of an unknown relative gap: the
// +Inf of a solve that proved no bound would not survive encoding/json,
// so plans, degradation reports and trace events record −1 instead.
const UnknownGap = -1

// JSONSafeGap maps an infinite or NaN gap to UnknownGap and passes every
// other gap through.
func JSONSafeGap(gap float64) float64 {
	if math.IsInf(gap, 0) || math.IsNaN(gap) {
		return UnknownGap
	}
	return gap
}

// Chain stage names, in chain order: the exact branch & bound, the
// rounding of its LP relaxation, and the LP-free last stage, which
// returns the cheapest warm start (a seed plan or a greedy heuristic
// point) that certifies.
const (
	StageExact    = "exact-milp"
	StageRounding = "lp-rounding"
	StageGreedy   = "greedy"
)
