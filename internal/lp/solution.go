package lp

import (
	"fmt"
	"time"
)

// Status reports the outcome of a solve.
type Status int

// Solve outcomes.
const (
	// StatusOptimal means an optimal solution was found (for MILP, within
	// the configured gap tolerance).
	StatusOptimal Status = iota + 1
	// StatusInfeasible means the model has no feasible point.
	StatusInfeasible
	// StatusUnbounded means the objective can decrease without bound.
	StatusUnbounded
	// StatusIterLimit means the solver hit its iteration limit before
	// proving optimality.
	StatusIterLimit
	// StatusNodeLimit means branch & bound hit its node limit; the
	// incumbent (if any) is the best known solution.
	StatusNodeLimit
	// StatusFeasible means a feasible but not provably optimal solution
	// was returned (e.g. heuristic incumbent at a limit).
	StatusFeasible
	// StatusCanceled means the solve was interrupted by its
	// context.Context before reaching any other terminal state. The
	// solution may still carry the best incumbent found so far in X
	// (callers must check X for nil — cancellation can strike before any
	// feasible point exists), but HasSolution reports false so that no
	// downstream consumer treats the partial result as a finished one
	// without opting in.
	StatusCanceled
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case StatusOptimal:
		return "optimal"
	case StatusInfeasible:
		return "infeasible"
	case StatusUnbounded:
		return "unbounded"
	case StatusIterLimit:
		return "iteration-limit"
	case StatusNodeLimit:
		return "node-limit"
	case StatusFeasible:
		return "feasible"
	case StatusCanceled:
		return "canceled"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// HasSolution reports whether the status carries a usable primal point.
func (s Status) HasSolution() bool {
	return s == StatusOptimal || s == StatusFeasible || s == StatusNodeLimit || s == StatusIterLimit
}

// Solution is the result of solving a model.
type Solution struct {
	Status    Status
	Objective float64
	// X holds one value per model variable; nil when no solution exists.
	X []float64
	// Iterations counts simplex pivots (summed over B&B nodes for MILP).
	Iterations int
	// Nodes counts branch & bound nodes explored (0 for pure LP).
	Nodes int
	// Gap is the relative MILP optimality gap at termination
	// ((incumbent − bound)/max(1,|incumbent|)); 0 for pure LP.
	Gap float64
	// DualValues holds one simplex multiplier per row for pure-LP solves;
	// nil for MILP.
	DualValues []float64
	// Limit names the budget dimension that ended the search when Status
	// is a limit status, and is empty for every other status. The value
	// is always one of the Limit* constants in degradation.go, and the
	// reachable (Status, Limit) combinations are exactly the ones
	// ValidLimit accepts: simplex solves stop with StatusIterLimit and
	// LimitIterations or LimitWallClock; branch & bound stops with
	// StatusNodeLimit and any of the four dimensions, or, with no
	// incumbent to surrender, passes a root LP's StatusIterLimit through
	// unchanged.
	Limit string

	// Concurrency statistics, populated by branch & bound solves
	// (package milp). All zero for pure simplex solves.

	// Workers is the number of branch & bound worker goroutines the
	// solve ran with (1 for a sequential solve).
	Workers int
	// NodesPerWorker counts the branch & bound nodes each worker
	// LP-solved; its entries sum to exactly Nodes (the root is counted
	// by the worker that solved it). nil when the solve never entered
	// the tree search — e.g. a pure-LP passthrough, which reports
	// Nodes=1 with no per-worker attribution.
	NodesPerWorker []int
	// PeakQueueDepth is the largest number of simultaneously open
	// branch & bound nodes observed.
	PeakQueueDepth int
	// WallTime is the elapsed wall-clock duration of the solve.
	WallTime time.Duration
	// WorkTime is the summed busy time of all workers (LP solves,
	// diving, branching). WorkTime/WallTime approximates the effective
	// parallelism achieved; for Workers=1 it is at most WallTime.
	WorkTime time.Duration
}

// Value returns the solution value of v, or 0 if no solution is present.
func (s *Solution) Value(v VarID) float64 {
	if s.X == nil || int(v) >= len(s.X) {
		return 0
	}
	return s.X[v]
}
