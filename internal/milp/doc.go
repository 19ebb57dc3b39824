// Package milp implements a parallel branch & bound mixed-integer
// linear-program solver over the bounded-variable simplex in package
// simplex. Together they form the repository's optimization engine — the
// substitute for the CPLEX solver the paper invokes (§V), including
// CPLEX's ability to spread the tree search over every available core.
//
// The search is best-first on the LP relaxation bound with
// most-fractional branching and a diving primal heuristic that usually
// produces a strong incumbent at the root. Before the tree fans out,
// rounds of Gomory and knapsack-cover cuts (package cuts) tighten the
// root relaxation for as long as its bound leaves the incumbent outside
// GapTol, as CPLEX's default search does. Termination is exact: when
// the node queue empties, the incumbent is optimal; otherwise the
// reported Gap bounds the distance to the optimum.
//
// # Concurrency architecture
//
// A solve is a coordinator plus Options.Workers worker goroutines
// (default runtime.NumCPU()):
//
//	   ┌───────────────  coordinator  ───────────────┐
//	   │ best-bound node queue · incumbent · bounds  │
//	   │ (one mutex; workers claim and commit nodes) │
//	   └──┬───────────────┬────────────────┬─────────┘
//	 claim/commit    claim/commit     claim/commit
//	   ┌──┴───┐        ┌──┴───┐         ┌──┴───┐
//	   │ w[0] │        │ w[1] │   ...   │ w[n] │
//	   └──────┘        └──────┘         └──────┘
//	each worker owns: a private relaxed model clone whose
//	bounds it mutates, and a reusable simplex.Solver
//
// The coordinator state (open-node priority queue, incumbent, global
// lower bound, node/iteration counters) lives behind one mutex. Workers
// loop: claim the best open node (priority: smallest LP bound, ties
// broken by node creation index so the order is total), LP-solve it
// against their private model clone outside the lock, then commit the
// result — publish an improved incumbent, push children, or close the
// node — under the lock again. All LP work, diving and feasibility
// checking happens outside the lock; lock hold times are O(log queue)
// heap operations.
//
// Incumbent publication: a candidate point is snapped to integrality and
// re-verified against the original model *outside* the lock, then
// installed only if it still strictly beats the current incumbent at
// install time (double-checked under the lock). The incumbent objective
// is therefore monotonically non-increasing, and the global lower bound
// — the minimum LP bound over queued and in-flight nodes — is
// monotonically non-decreasing, which keeps the reported gap meaningful
// at every instant.
//
// Pruning uses a snapshot of the incumbent objective taken when the
// worker starts processing a node. A stale snapshot can only make
// pruning *less* aggressive (the incumbent only improves), so no node
// that could contain a better solution is ever discarded; at worst a few
// redundant nodes are solved and then pruned at commit time.
//
// # Determinism
//
// With Workers=1 the search is fully deterministic: one worker drains
// the queue in the total (bound, creation-index) order, so two runs of
// the same model produce identical node counts, iteration counts and
// solutions. With Workers>1 the *exploration order* depends on
// scheduling, so node counts vary run to run — but the certified result
// does not: the solver only terminates optimal when the global lower
// bound is within GapTol of the incumbent, every incumbent is verified
// against the original model before installation, and pruning against
// the snapshot bound never discards an improving subtree. Any worker
// count therefore yields the same certified objective (within GapTol,
// which defaults to effectively exact). The race stress tests assert
// this for Workers ∈ {1, 2, 8} and internal/certify re-checks every
// planner solution independently.
//
// # Goroutine safety and panics
//
// Solve and SolveContext are safe for concurrent use; each call builds
// its own coordinator and workers. The model passed in is cloned before
// presolve, so the caller's model is never mutated. A panic inside a
// worker goroutine does not cross the API boundary: the worker recovers
// it, converts it into an error on the coordinator, and the solve
// returns that error (enforced by the nopanic etlint analyzer plus the
// recover guard in runWorker).
//
// # Cancellation
//
// SolveContext observes ctx between nodes. On cancellation it returns
// the best incumbent found so far (Status lp.StatusCanceled, X set when
// an incumbent exists) together with ctx.Err(), so callers can
// distinguish "canceled with a usable partial result" from "canceled
// empty-handed". Options.TimeLimit, by contrast, is a graceful budget:
// hitting it returns a normal solution with Status lp.StatusNodeLimit
// and no error.
package milp
