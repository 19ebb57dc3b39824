package obs

import (
	"encoding/json"
	"fmt"
	"io"
)

// BenchSchema identifies the BENCH_<n>.json format version. Bump only
// with a migration note in DESIGN.md; the perf-trajectory tooling
// refuses unknown schemas rather than guessing.
const BenchSchema = "etransform-bench/v1"

// BenchScenario is one benchmarked solve in a BenchReport.
type BenchScenario struct {
	// Name identifies the scenario (dataset plus variant, e.g.
	// "fig6/florida").
	Name string `json:"name"`
	// DR records whether disaster-recovery planning was on.
	DR bool `json:"dr,omitempty"`
	// Rows/Cols/Nodes/Iterations are the solved MILP's dimensions and
	// search effort; Workers the branch & bound worker count.
	Rows       int `json:"rows"`
	Cols       int `json:"cols"`
	Nodes      int `json:"nodes"`
	Iterations int `json:"iterations"`
	Workers    int `json:"workers,omitempty"`
	// Gap is the certified relative optimality gap at termination.
	// GapUnknown marks a solve whose plan came from a fallback stage
	// with no certified gap (the planner's internal −1 sentinel); Gap is
	// then written as 0 and must not be read as "proven optimal".
	Gap        float64 `json:"gap"`
	GapUnknown bool    `json:"gap_unknown,omitempty"`
	// WallMillis and WorkMillis are the solve's wall-clock and summed
	// worker-busy times.
	WallMillis int64 `json:"wall_millis"`
	WorkMillis int64 `json:"work_millis,omitempty"`
	// Cost is the plan's objective (total monthly cost), the quantity
	// the paper's figures track.
	Cost float64 `json:"cost,omitempty"`
	// WarmHits/WarmMisses count node LPs that did and did not accept
	// the parent basis. Warm and Phase1Skipped are historical: BENCH_5–7
	// carry "+warm" rows (Warm true) re-solved with the then opt-in
	// parent-basis reuse, and a phase-1 skip counter that always equalled
	// WarmHits. Every node LP is warm-started now, so etbench writes
	// neither; the fields stay only so those artifacts still parse.
	Warm          bool  `json:"warm,omitempty"`
	WarmHits      int64 `json:"warm_hits,omitempty"`
	WarmMisses    int64 `json:"warm_misses,omitempty"`
	Phase1Skipped int64 `json:"phase1_skipped,omitempty"`
	// Sparse-engine factorization counters (zero on the dense reference
	// engine, hence omitempty): Factorizations counts sparse-LU builds,
	// EtaUpdates the product-form updates appended between them,
	// PricedCandidates the columns examined by partial pricing, and
	// RefactorDriftMax the worst relative primal residual seen at the
	// periodic drift checks (the refactorization policy's second
	// trigger, bounded by tol.Drift).
	Factorizations   int64   `json:"factorizations,omitempty"`
	EtaUpdates       int64   `json:"eta_updates,omitempty"`
	PricedCandidates int64   `json:"priced_candidates,omitempty"`
	RefactorDriftMax float64 `json:"refactor_drift_max,omitempty"`
	// CutsEnabled marks a solve that ran root-node cut separation
	// (milp.Options.Cuts); the companion baseline scenario shares the
	// name minus the "+cuts" suffix. CutsSeparated counts cuts accepted
	// into the root LP across all rounds, CutsActive the non-retired
	// ones handed to the tree search. Every separated cut was
	// re-verified against the solve's stash of known feasible points
	// (internal/certify.CheckCut) — a bench artifact with these fields
	// nonzero is also a record that zero cuts were rejected.
	CutsEnabled   bool  `json:"cuts,omitempty"`
	CutsSeparated int64 `json:"cuts_separated,omitempty"`
	CutsActive    int64 `json:"cuts_active,omitempty"`
	// KernelIncumbents is historical: it counted the incumbents the
	// since-deleted kernel-search heuristic installed in BENCH_7's
	// "+cuts" rows, which ran root cuts and kernel search together.
	// Nothing writes it any more; it stays so BENCH_7.json still parses
	// under the strict (unknown-field) read.
	KernelIncumbents int64 `json:"kernel_incumbents,omitempty"`
}

// BenchReport is the schema of the repository's BENCH_<n>.json perf
// artifacts: one file per PR, written by scripts/bench.sh via
// cmd/etbench -json, accumulating a solver-performance trajectory
// across the repo's history.
type BenchReport struct {
	// Schema must equal BenchSchema.
	Schema string `json:"schema"`
	// PR is the pull-request number the artifact belongs to.
	PR int `json:"pr"`
	// GoVersion and CPUs record the build and host, so numbers are
	// never context-free.
	GoVersion string `json:"go_version"`
	CPUs      int    `json:"cpus"`
	// CreatedAt is an RFC 3339 UTC timestamp.
	CreatedAt string `json:"created_at,omitempty"`
	// Scenarios holds one entry per benchmarked solve, in run order.
	Scenarios []BenchScenario `json:"scenarios"`
}

// Validate checks the report against the schema contract.
func (r *BenchReport) Validate() error {
	if r.Schema != BenchSchema {
		return fmt.Errorf("obs: bench report schema %q, want %q", r.Schema, BenchSchema)
	}
	if r.PR <= 0 {
		return fmt.Errorf("obs: bench report PR %d, want > 0", r.PR)
	}
	if r.GoVersion == "" {
		return fmt.Errorf("obs: bench report missing go_version")
	}
	if r.CPUs <= 0 {
		return fmt.Errorf("obs: bench report CPUs %d, want > 0", r.CPUs)
	}
	if len(r.Scenarios) == 0 {
		return fmt.Errorf("obs: bench report has no scenarios")
	}
	for i, s := range r.Scenarios {
		if s.Name == "" {
			return fmt.Errorf("obs: bench scenario %d missing name", i)
		}
		if s.Rows <= 0 || s.Cols <= 0 {
			return fmt.Errorf("obs: bench scenario %q has empty model (%d rows × %d cols)", s.Name, s.Rows, s.Cols)
		}
		if s.WallMillis < 0 {
			return fmt.Errorf("obs: bench scenario %q has negative wall time", s.Name)
		}
		if s.Gap < 0 {
			return fmt.Errorf("obs: bench scenario %q has negative gap %g", s.Name, s.Gap)
		}
	}
	return nil
}

// WriteBenchReport validates and writes r as indented JSON.
func WriteBenchReport(w io.Writer, r *BenchReport) error {
	if err := r.Validate(); err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// ReadBenchReport parses and validates a BENCH_<n>.json stream. Unknown
// fields are rejected: the schema is a contract, not a suggestion.
func ReadBenchReport(rd io.Reader) (*BenchReport, error) {
	dec := json.NewDecoder(rd)
	dec.DisallowUnknownFields()
	r := &BenchReport{}
	if err := dec.Decode(r); err != nil {
		return nil, fmt.Errorf("obs: parsing bench report: %w", err)
	}
	if err := r.Validate(); err != nil {
		return nil, err
	}
	return r, nil
}
