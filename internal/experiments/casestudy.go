// Package experiments reproduces every table and figure of the paper's
// evaluation (§VI): the Figure 4 / Table 4(d,e) non-DR case studies, the
// Figure 6 / Table 6(d,e) DR case studies, the Figure 7 latency-penalty
// sweep, the Figure 8 DR-server-cost sweep, and the Figure 9/10
// space-vs-WAN packing studies. Each experiment is a plain function
// returning a typed result that the benchmark harness, the etbench CLI
// and EXPERIMENTS.md all share.
//
// Sweep experiments (Figure 7, 8 and 10) solve their independent points
// concurrently across a bounded worker pool (Scale.SweepWorkers);
// results are assembled by point index, so rendered output is identical
// for any worker count. Per-solve branch & bound parallelism is
// controlled separately through Scale.SolverWorkers and defaults to 1
// inside a concurrent sweep to avoid oversubscription.
package experiments

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"github.com/etransform/etransform/internal/baseline"
	"github.com/etransform/etransform/internal/core"
	"github.com/etransform/etransform/internal/datagen"
	"github.com/etransform/etransform/internal/milp"
	"github.com/etransform/etransform/internal/model"
	"github.com/etransform/etransform/internal/obs"
	"github.com/etransform/etransform/internal/report"
	"github.com/etransform/etransform/internal/tol"
)

// Scale bounds an experiment's size and solve effort. Benchmarks shrink
// the biggest case studies; the shrink factor is carried into every
// result so it is never silent.
type Scale struct {
	// Fraction scales case-study dataset sizes (1 = paper scale).
	Fraction float64
	// GapTol is the MILP relative optimality gap.
	GapTol float64
	// MaxNodes and TimeLimit bound branch & bound per solve.
	MaxNodes  int
	TimeLimit time.Duration
	// CandidateKLarge prunes candidates per group on estates with more
	// than 20 target DCs (0 = never prune).
	CandidateKLarge int
	// SweepWorkers bounds how many independent sweep points (Figure 7/8/10
	// settings, etbench datasets) solve concurrently; 0 selects
	// runtime.NumCPU(). Results are assembled by point index, so output is
	// identical for any value.
	SweepWorkers int
	// SolverWorkers sets the branch & bound worker count per solve. 0
	// picks a non-oversubscribing default: 1 inside a concurrent sweep
	// (the sweep already saturates the cores), runtime.NumCPU() otherwise.
	SolverWorkers int
	// CollectMetrics arms an observability registry on each solve so the
	// result's SolveStats.Metrics snapshot carries the solver counters
	// (pivots, warm hits, factorizations, …). Off by default: metrics
	// collection costs atomics on hot paths.
	CollectMetrics bool
}

// FullScale solves the case studies at paper size.
func FullScale() Scale {
	return Scale{Fraction: 1, GapTol: 1e-3, MaxNodes: 50000, TimeLimit: 10 * time.Minute, CandidateKLarge: 12}
}

// BenchScale keeps the Federal-size case study inside a laptop budget
// (the scaling is reported in the result name).
func BenchScale() Scale {
	return Scale{Fraction: 0.25, GapTol: 5e-3, MaxNodes: 4000, TimeLimit: time.Minute, CandidateKLarge: 8}
}

func (sc Scale) solver() milp.Options {
	workers := sc.SolverWorkers
	if workers <= 0 && sc.sweepWorkers() > 1 {
		// The sweep fan-out already keeps every core busy; nested
		// parallel solves would only oversubscribe.
		workers = 1
	}
	o := milp.Options{
		GapTol: sc.GapTol, MaxNodes: sc.MaxNodes, TimeLimit: sc.TimeLimit,
		Workers: workers,
	}
	if sc.CollectMetrics {
		o.Metrics = obs.NewMetrics()
	}
	return o
}

func (sc Scale) sweepWorkers() int {
	if sc.SweepWorkers > 0 {
		return sc.SweepWorkers
	}
	return runtime.NumCPU()
}

func (sc Scale) apply(cfg datagen.CaseStudyConfig) datagen.CaseStudyConfig {
	if sc.Fraction > 0 && sc.Fraction < 1 {
		return cfg.Scaled(sc.Fraction)
	}
	return cfg
}

func (sc Scale) candidateK(targetDCs int) int {
	if sc.CandidateKLarge > 0 && targetDCs > 20 {
		return sc.CandidateKLarge
	}
	return 0
}

// AlgorithmNames is the fixed comparison order of Figures 4 and 6.
var AlgorithmNames = []string{"AS-IS", "MANUAL", "GREEDY", "ETRANSFORM"}

// CaseStudyResult is one dataset's Figure 4 (or Figure 6, when DR) bar
// group plus its Table (d)/(e) rows.
type CaseStudyResult struct {
	Dataset string
	DR      bool
	// Breakdowns maps algorithm name → full cost accounting. "AS-IS"
	// includes the single-backup-DC addition when DR.
	Breakdowns map[string]model.CostBreakdown
	// Stats is the LP planner's solve record.
	Stats model.SolveStats
}

// Cost is the bar height used in the paper's charts: operational cost
// plus backup capital (no latency penalties — those are drawn stacked).
func (r *CaseStudyResult) Cost(algo string) float64 {
	b := r.Breakdowns[algo]
	return b.OperationalCost() + b.BackupCapital
}

// Reduction returns an algorithm's cost change relative to as-is
// (negative = cheaper), as in Tables 4(d) and 6(d).
func (r *CaseStudyResult) Reduction(algo string) float64 {
	base := r.Cost("AS-IS")
	if tol.IsZero(base) {
		return 0
	}
	return (r.Cost(algo) - base) / base
}

// Violations returns an algorithm's latency violation count, as in
// Tables 4(e) and 6(e).
func (r *CaseStudyResult) Violations(algo string) int {
	return r.Breakdowns[algo].LatencyViolations
}

// Render draws the bar chart and tables.
func (r *CaseStudyResult) Render() string {
	labels := make([]string, 0, len(AlgorithmNames))
	bds := make([]model.CostBreakdown, 0, len(AlgorithmNames))
	for _, n := range AlgorithmNames {
		if b, ok := r.Breakdowns[n]; ok {
			labels = append(labels, n)
			bds = append(bds, b)
		}
	}
	title := fmt.Sprintf("Cost for various solutions — %s", r.Dataset)
	if r.DR {
		title += " (with DR)"
	}
	out := report.BarChart(title, report.CostBars(labels, bds), 50)
	rows := make([][]string, 0, len(labels))
	for _, n := range labels {
		rows = append(rows, []string{
			n, report.Money(r.Cost(n)), report.Percent(r.Reduction(n)),
			fmt.Sprintf("%d", r.Violations(n)), report.Money(r.Breakdowns[n].Latency),
		})
	}
	out += report.Table([]string{"algorithm", "cost", "vs as-is", "latency violations", "penalty paid"}, rows)
	return out
}

// CaseStudy runs one dataset through all four algorithms. dr selects the
// §VI-B (false) or §VI-C (true) variant.
func CaseStudy(cfg datagen.CaseStudyConfig, sc Scale, dr bool) (*CaseStudyResult, error) {
	cfg = sc.apply(cfg)
	s, err := cfg.Generate()
	if err != nil {
		return nil, err
	}
	res := &CaseStudyResult{Dataset: cfg.Name, DR: dr, Breakdowns: make(map[string]model.CostBreakdown)}

	if dr {
		asis, err := baseline.AsIsPlusDR(s)
		if err != nil {
			return nil, fmt.Errorf("experiments: as-is+DR: %w", err)
		}
		res.Breakdowns["AS-IS"] = asis
	} else {
		asis, err := model.EvaluateAsIs(s)
		if err != nil {
			return nil, fmt.Errorf("experiments: as-is: %w", err)
		}
		res.Breakdowns["AS-IS"] = asis
	}

	if mp, err := baseline.Manual(s, baseline.ManualOptions{DR: dr}); err == nil {
		res.Breakdowns["MANUAL"] = mp.Cost
	}
	// else: the manual heuristic legitimately fails on some estates (its
	// fixed DC set may not fit); leave it absent and render "n/a".
	gp, err := baseline.Greedy(s, baseline.GreedyOptions{DR: dr})
	if err != nil {
		return nil, fmt.Errorf("experiments: greedy: %w", err)
	}
	res.Breakdowns["GREEDY"] = gp.Cost

	planner, err := core.New(s, core.Options{
		DR:         dr,
		CandidateK: sc.candidateK(len(s.Target.DCs)),
		Solver:     sc.solver(),
	})
	if err != nil {
		return nil, err
	}
	plan, err := planner.Solve()
	if err != nil {
		return nil, fmt.Errorf("experiments: eTransform: %w", err)
	}
	res.Breakdowns["ETRANSFORM"] = plan.Cost
	res.Stats = plan.Stats
	return res, nil
}

// Figure4 reproduces Figure 4(a–c) and Tables 4(d,e): the non-DR
// comparison on one dataset.
func Figure4(cfg datagen.CaseStudyConfig, sc Scale) (*CaseStudyResult, error) {
	return CaseStudy(cfg, sc, false)
}

// Figure6 reproduces Figure 6(a–c) and Tables 6(d,e): the DR comparison.
func Figure6(cfg datagen.CaseStudyConfig, sc Scale) (*CaseStudyResult, error) {
	return CaseStudy(cfg, sc, true)
}

// DatasetSummary is one Table II row.
type DatasetSummary struct {
	Name       string
	CurrentDCs int
	TargetDCs  int
	Servers    int
	AppGroups  int
}

// TableII returns the dataset-size table for the three case studies at
// the given scale.
func TableII(sc Scale) []DatasetSummary {
	cfgs := []datagen.CaseStudyConfig{datagen.Enterprise1(), datagen.Florida(), datagen.Federal()}
	out := make([]DatasetSummary, len(cfgs))
	for i, c := range cfgs {
		c = sc.apply(c)
		out[i] = DatasetSummary{
			Name: c.Name, CurrentDCs: c.CurrentDCs, TargetDCs: c.TargetDCs,
			Servers: c.Servers, AppGroups: c.Groups,
		}
	}
	return out
}

// RenderTableII formats the Table II summaries.
func RenderTableII(rows []DatasetSummary) string {
	trows := make([][]string, len(rows))
	for i, r := range rows {
		trows[i] = []string{
			r.Name,
			fmt.Sprintf("%d", r.CurrentDCs), fmt.Sprintf("%d", r.TargetDCs),
			fmt.Sprintf("%d", r.Servers), fmt.Sprintf("%d", r.AppGroups),
		}
	}
	return report.Table([]string{"dataset", "as-is DCs", "target DCs", "servers", "app groups"}, trows)
}

// meanUserLatency is the user-weighted average latency of a plan's
// primary placements.
func meanUserLatency(s *model.AsIsState, plan *model.Plan) float64 {
	totalUsers := 0
	weighted := 0.0
	for i := range s.Groups {
		g := &s.Groups[i]
		j := s.Target.DCIndex(plan.AssignmentFor(g.ID).PrimaryDC)
		u := g.TotalUsers()
		totalUsers += u
		weighted += float64(u) * model.AvgLatencyMs(g, &s.Target, j)
	}
	if totalUsers == 0 {
		return 0
	}
	return weighted / float64(totalUsers)
}

// sortedKeys returns a map's keys in sorted order (for deterministic
// rendering).
func sortedKeys[M ~map[string]V, V any](m M) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
