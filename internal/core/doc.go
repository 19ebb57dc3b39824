// Package core implements the eTransform transformation and consolidation
// planner — the paper's primary contribution (§III–§IV). It converts an
// as-is enterprise state into a mixed-integer linear program whose
// solution is the "to-be" plan:
//
//	minimize  Σ_ij X_ij ( S_i(Q_j + αE_j + T_j/β) + D_i W_j + L_ij )
//	s.t.      Σ_j X_ij = 1          (every group placed)
//	          Σ_i S_i X_ij ≤ O_j    (capacity)
//	          X_ij ∈ {0,1}
//
// with extensions for volume-discount space pricing (Schoomer-style step
// functions, §III-B), dedicated-VPN WAN pricing, and integrated disaster
// recovery (§IV-B: secondary sites, a shared single-failure backup pool
// G_b = max_a Σ_c J_abc S_c, and the business-impact cap ω).
//
// DR is planned with a pair-assignment formulation (Z_{i,(a,b)} with
// M + N + N² + N rows) that scales far better than the paper's literal
// (X, Y, J, G) linearization with its M·N² linking rows. The paper's
// encoding is kept only as a test reference (paper_test.go) that must
// reach the same optimum. Identical application groups are always
// aggregated into integer-count variables — an exact reformulation that
// collapses the paper's largest (Federal) dataset to a tractable size.
//
// # Invariants
//
//   - Every plan returned by Solve/SolveContext has been independently
//     certified by internal/certify against the full MILP (row
//     activities, bounds, integrality); a solver bug cannot silently
//     ship an infeasible plan. Plan.Stats.Certificate records the
//     verdict.
//   - The LP objective and the shared cost evaluator in internal/model
//     are cross-checked on every decode, so the MILP provably encodes
//     the same economics the reports print.
//   - Candidate pruning (Options.CandidateK) is transparent: a pruned
//     model that turns out infeasible is automatically retried unpruned.
//   - A failed exact solve degrades, never crashes (fallback.go): it is
//     retried once, then replaced by LP-relaxation rounding, then by the
//     cheapest warm start that certifies (the seed plan or an LP-free
//     heuristic point, warm.go), and the plan says which stage made it
//     in Plan.Stats.Degradation.
//
// # Goroutine safety
//
// A Planner is NOT safe for concurrent use: Pin and Forbid mutate the
// underlying state, and Solve reads it. Distinct Planner values over
// distinct AsIsState values are fully independent, so concurrent solves
// of different scenarios (as in internal/experiments' sweeps) are safe.
// The underlying milp solve is itself parallel — tune it through
// Options.Solver.Workers rather than racing multiple Planners over one
// state.
package core
