// Package simplex implements a two-phase bounded-variable revised primal
// simplex solver for the linear programs emitted by the eTransform
// planner. It is the repository's substitute for the CPLEX LP engine used
// in the paper (§V): the planner builds a standard LP/MILP and any exact
// solver — this one, or an external one via the LP-file interchange in
// package lp — produces the same optimum.
//
// # The revised simplex loop
//
// The solver never forms a dense tableau. Each iteration works against a
// factorized representation of the basis matrix B:
//
//   - Columns are held in compressed sparse column (CSC) form, built once
//     per solve from the model; a CSR mirror of the same nonzeros serves
//     the pivot-row pass that pricing updates need.
//   - B is factorized as P·B·Q = L·U by a left-looking sparse LU
//     (Gilbert–Peierls: DFS reachability for each column's fill pattern,
//     then a numeric solve in reverse postorder), with Markowitz-style
//     threshold pivoting (tol.Markowitz) and singularity detection
//     (tol.Singular).
//   - Between factorizations, each basis exchange appends a product-form
//     eta vector instead of refactorizing: FTRAN applies B₀⁻¹ then the
//     eta file forward, BTRAN applies the eta file in reverse then B₀⁻ᵀ.
//   - The factorization is rebuilt when the eta file reaches 64
//     updates (Options.refactorEvery, which only this package's tests
//     change), when the periodic drift check finds the relative primal
//     residual ‖b−A·x‖∞ above tol.Drift, or when a pivot column's
//     eligible entries all fall below tol.Pivot (stale-factorization
//     recovery).
//
// Pricing is devex with partial candidate scans: reduced costs are
// maintained across pivots (exactness tracked explicitly, and every
// terminal optimality/unboundedness verdict is re-checked against exactly
// recomputed values), reference weights approximate steepest edge, and
// each iteration scores a retained candidate buffer plus a rotating
// section of the column range rather than every column. After a run of
// degenerate pivots the solver falls back to Bland's rule on exact
// reduced costs, which guarantees termination.
//
// Phase 1 installs one artificial per row carrying the initial residual,
// giving a trivially factorizable feasible basis; minimizing the sum of
// artificials either reaches zero (proceed to phase 2 on the true costs)
// or proves infeasibility.
//
// The tests check the engine against exactLP, an exact rational two-phase
// tableau simplex that lives only in the test files and shares no code
// with the engine: cold, warm-started and forced-Bland solves of random
// LPs must match its status and objective. See
// DESIGN.md, "Sparse linear algebra", for the full contract — data
// layouts, update formulas, the refactorization policy and the exact
// tolerance each guard uses.
//
// Integrality markers on the model are ignored: Solve always solves the
// continuous relaxation. Package milp layers branch & bound on top.
//
// # Invariants
//
//   - Solve never mutates the model it is given; the model may be shared
//     (read-only) between concurrent solves.
//   - Results are deterministic: the same model and options always
//     produce the same pivot sequence, iteration count and solution.
//   - Solve returns a non-nil error only for malformed input or internal
//     numerical failure; infeasible/unbounded/iteration-limit outcomes
//     are reported through Solution.Status.
//
// # Goroutine safety
//
// The package-level Solve function is safe for concurrent use: every
// call builds private working state. A Solver value is NOT goroutine
// safe — it deliberately retains its scratch tableau, factorization and
// eta file between calls so that hot loops (one branch & bound worker
// solving thousands of same-shaped node LPs) avoid re-allocating the
// working arrays. Each goroutine must own its own Solver; sharing one
// requires external serialization. A Solver holds no reference to any
// model passed to a completed Solve call.
package simplex
