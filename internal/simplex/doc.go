// Package simplex implements a bounded-variable revised simplex solver
// for the linear programs emitted by the eTransform planner: every
// solve installs a starting basis, a dual simplex restores primal
// feasibility when that basis is dual feasible, and a primal simplex
// runs phase 1 on whatever infeasibility is left and phase 2 to the
// optimum. It is the repository's substitute for the CPLEX
// LP engine used in the paper (§V): the planner builds a standard
// LP/MILP and any exact solver — this one, or an external one via the
// LP-file interchange in package lp — produces the same optimum.
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
// # One start path
//
// Every solve installs a basis and runs one pipeline on it. The start
// is chosen from the cost signs and bounds:
//
//   - Solver.SolveFrom installs a Basis snapshot, such as a branch &
//     bound parent's optimal basis (Basis.ExtendRows and Basis.DropRows
//     adapt one to appended or removed rows). The snapshot is dual
//     feasible for a child that differs only in bounds.
//   - Without a basis, or when the snapshot does not install, the solve
//     installs the all-slack basis, an identity matrix that always
//     installs. It is dual feasible when every structural can rest at
//     the bound its cost sign asks for: positive cost at a finite lower
//     bound, negative cost at a finite upper bound, zero cost anywhere.
//     Then y = 0 and d = c. Every planner model qualifies.
//
// From a dual feasible start (an inherited basis, or the slack basis
// outside Bland pricing) one restoration loop runs, a textbook bounded
// dual simplex: the most-violated basic variable leaves, and the
// min-ratio column always pivots in, even past its opposite bound, so
// reduced costs keep their signs and no bound flip can cycle. A leaving
// row with no entering column ends the solve infeasible when its row of
// B⁻¹ passes a Farkas test on the model data. A row without such a
// proof, or more than stallLimit consecutive dual-degenerate pivots,
// ends the restoration, and its pivots stay counted.
//
// Phase 1 then runs on whatever infeasibility the start left: on the
// slack basis of an LP that is not dual feasible there (a negative-cost
// column unbounded above, a free column with a nonzero cost), on the
// slack basis under Options.Bland (the perturbed retry of package
// milp), and after a restoration that gives up. It needs no artificial
// columns: each basic column outside its bounds temporarily takes the
// bound it violates as its opposite bound, with cost −1 below its lower
// bound or +1 above its upper bound and every other column at cost 0,
// and the primal loop runs unchanged. At each phase-1 optimum the
// relaxed columns back inside their bounds get them back; an optimum
// that restores none proves the LP infeasible. Phase 2 finishes every
// solve, and Options.MaxIters bounds the whole of it.
//
// The tests check the engine against exactLP, an exact rational two-phase
// tableau simplex that lives only in the test files and shares no code
// with the engine: slack-started, phase-1, warm-started and
// forced-Bland solves of random LPs must match its status and
// objective. See
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
