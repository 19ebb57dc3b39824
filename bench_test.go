// Benchmarks regenerating every table and figure of the paper's
// evaluation (§VI), plus ablations of the design choices documented in
// DESIGN.md. Each benchmark reports the headline quantities of its
// experiment as custom metrics, so `go test -bench=. -benchmem` is the
// reproduction harness; `go run ./cmd/etbench` prints the full tables.
//
// Large case studies run shrunk (experiments.BenchScale — the factor is
// part of the dataset name and the reported metrics); run
// `cmd/etbench -scale full` for paper-size instances.
package etransform_test

import (
	"bytes"
	"context"
	"io"
	"testing"
	"time"

	"github.com/etransform/etransform/internal/core"
	"github.com/etransform/etransform/internal/datagen"
	"github.com/etransform/etransform/internal/experiments"
	"github.com/etransform/etransform/internal/lp"
	"github.com/etransform/etransform/internal/milp"
	"github.com/etransform/etransform/internal/model"
	"github.com/etransform/etransform/internal/obs"
	"github.com/etransform/etransform/internal/simplex"
	"github.com/etransform/etransform/internal/stepwise"
)

// benchScale bounds each solve so a full -bench=. pass stays inside a
// laptop budget.
func benchScale() experiments.Scale {
	sc := experiments.BenchScale()
	sc.MaxNodes = 400
	sc.TimeLimit = 20 * time.Second
	return sc
}

// --- Table II ----------------------------------------------------------

func BenchmarkTableII_Datasets(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, cfg := range []datagen.CaseStudyConfig{
			datagen.Enterprise1(), datagen.Florida(), datagen.Federal().Scaled(0.25),
		} {
			s, err := cfg.Generate()
			if err != nil {
				b.Fatal(err)
			}
			if len(s.Groups) == 0 {
				b.Fatal("empty dataset")
			}
		}
	}
}

// --- Figure 4 / Tables 4(d,e): non-DR case studies ----------------------

func benchCaseStudy(b *testing.B, cfg datagen.CaseStudyConfig, dr bool) {
	b.Helper()
	sc := benchScale()
	var res *experiments.CaseStudyResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.CaseStudy(cfg, sc, dr)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(-res.Reduction("ETRANSFORM")*100, "etransform_reduction_%")
	b.ReportMetric(-res.Reduction("GREEDY")*100, "greedy_reduction_%")
	b.ReportMetric(-res.Reduction("MANUAL")*100, "manual_reduction_%")
	b.ReportMetric(float64(res.Violations("ETRANSFORM")), "etransform_violations")
	b.ReportMetric(float64(res.Violations("GREEDY")), "greedy_violations")
	b.ReportMetric(float64(res.Violations("MANUAL")), "manual_violations")
	b.ReportMetric(res.Stats.Gap*100, "milp_gap_%")
}

func BenchmarkFig4_NonDR_Enterprise1(b *testing.B) { benchCaseStudy(b, datagen.Enterprise1(), false) }
func BenchmarkFig4_NonDR_Florida(b *testing.B)     { benchCaseStudy(b, datagen.Florida(), false) }
func BenchmarkFig4_NonDR_Federal(b *testing.B)     { benchCaseStudy(b, datagen.Federal(), false) }

// --- Figure 6 / Tables 6(d,e): DR case studies --------------------------

func BenchmarkFig6_DR_Enterprise1(b *testing.B) { benchCaseStudy(b, datagen.Enterprise1(), true) }
func BenchmarkFig6_DR_Florida(b *testing.B)     { benchCaseStudy(b, datagen.Florida(), true) }
func BenchmarkFig6_DR_Federal(b *testing.B)     { benchCaseStudy(b, datagen.Federal(), true) }

// --- Figure 7: latency-penalty sweep ------------------------------------

func BenchmarkFig7_LatencyPenalty(b *testing.B) {
	sc := benchScale()
	var res *experiments.Figure7Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.Figure7(context.Background(), sc)
		if err != nil {
			b.Fatal(err)
		}
	}
	// Headline: with all users far away (split 0), the top penalty drives
	// latency below threshold while space cost rises.
	lat := res.MeanLatMs[0]
	space := res.SpaceCost[0]
	b.ReportMetric(lat[0], "lat_ms_at_penalty0")
	b.ReportMetric(lat[len(lat)-1], "lat_ms_at_penalty120")
	b.ReportMetric(space[len(space)-1]/space[0], "space_cost_growth_x")
}

// --- Figure 8: DR server cost sweep --------------------------------------

func BenchmarkFig8_DRServerCost(b *testing.B) {
	sc := benchScale()
	var res *experiments.Figure8Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.Figure8(context.Background(), sc)
		if err != nil {
			b.Fatal(err)
		}
	}
	n := len(res.DRServerCost)
	b.ReportMetric(float64(res.DCsUsed[0]), "dcs_at_cheap_dr")
	b.ReportMetric(float64(res.DCsUsed[n-1]), "dcs_at_costly_dr")
	b.ReportMetric(float64(res.DRServers[0]), "drsrv_at_cheap_dr")
	b.ReportMetric(float64(res.DRServers[n-1]), "drsrv_at_costly_dr")
}

// --- Figure 9: space vs WAN tradeoff -------------------------------------

func BenchmarkFig9_SpaceWANTradeoff(b *testing.B) {
	var res *experiments.Figure9Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.Figure9()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.CheapestLocation), "argmin_location")
	b.ReportMetric(res.Spread, "cost_spread_x")
}

// --- Figure 10: placement growth -----------------------------------------

func BenchmarkFig10_PlacementGrowth(b *testing.B) {
	sc := benchScale()
	var res *experiments.Figure10Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.Figure10(context.Background(), sc)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.DCsUsed[0]), "dcs_at_100_groups")
	b.ReportMetric(float64(res.DCsUsed[len(res.DCsUsed)-1]), "dcs_at_700_groups")
}

// --- Ablations ------------------------------------------------------------

// DESIGN.md: candidate pruning trades a little optimality for model size
// on very large estates; the retry path guards feasibility.
func benchCandidateK(b *testing.B, k int) {
	s, err := datagen.Federal().Scaled(0.25).Generate()
	if err != nil {
		b.Fatal(err)
	}
	var plan *model.Plan
	for i := 0; i < b.N; i++ {
		p, err := core.New(s, core.Options{
			CandidateK: k,
			Solver:     milp.Options{GapTol: 5e-3, MaxNodes: 200, TimeLimit: 20 * time.Second},
		})
		if err != nil {
			b.Fatal(err)
		}
		plan, err = p.Solve()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(plan.Stats.Cols), "cols")
	b.ReportMetric(plan.Cost.Total(), "plan_cost_$")
}

func BenchmarkAblation_CandidateK_All(b *testing.B) { benchCandidateK(b, 0) }
func BenchmarkAblation_CandidateK_8(b *testing.B)   { benchCandidateK(b, 8) }

// --- Solver micro-benchmarks ----------------------------------------------

func BenchmarkSimplex_MediumAssignmentLP(b *testing.B) {
	s, err := datagen.Enterprise1().Generate()
	if err != nil {
		b.Fatal(err)
	}
	p, err := core.New(s, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	m, err := p.BuildModel()
	if err != nil {
		b.Fatal(err)
	}
	relaxed := m.Relax()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sol, err := simplex.Solve(relaxed, nil)
		if err != nil {
			b.Fatal(err)
		}
		if sol.Status != lp.StatusOptimal {
			b.Fatalf("status %v", sol.Status)
		}
	}
}

func BenchmarkMILP_Enterprise1NonDR(b *testing.B) {
	s, err := datagen.Enterprise1().Generate()
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		p, err := core.New(s, core.Options{
			Solver: milp.Options{GapTol: 1e-3, TimeLimit: 30 * time.Second},
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := p.Solve(); err != nil {
			b.Fatal(err)
		}
	}
}

// benchObsSimplex solves the medium assignment LP with a given
// observability configuration; the off/metrics/trace spread is the
// instrumentation overhead quoted in DESIGN.md's Observability chapter
// (acceptance bar: tracer off must stay within 2% of the pre-obs hot
// path — a nil Tracer/Metrics costs one pointer compare per fold site).
func benchObsSimplex(b *testing.B, opts *simplex.Options) {
	s, err := datagen.Enterprise1().Generate()
	if err != nil {
		b.Fatal(err)
	}
	p, err := core.New(s, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	m, err := p.BuildModel()
	if err != nil {
		b.Fatal(err)
	}
	relaxed := m.Relax()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sol, err := simplex.Solve(relaxed, opts)
		if err != nil {
			b.Fatal(err)
		}
		if sol.Status != lp.StatusOptimal {
			b.Fatalf("status %v", sol.Status)
		}
		b.ReportMetric(float64(sol.Iterations), "pivots")
	}
}

func BenchmarkObs_Simplex_Off(b *testing.B) { benchObsSimplex(b, nil) }

func BenchmarkObs_Simplex_Metrics(b *testing.B) {
	benchObsSimplex(b, &simplex.Options{Metrics: obs.NewMetrics()})
}

func BenchmarkObs_Simplex_Trace(b *testing.B) {
	benchObsSimplex(b, &simplex.Options{
		Metrics: obs.NewMetrics(),
		Trace:   obs.New(obs.NewJSONLSink(io.Discard)),
	})
}

func BenchmarkLPFormat_WriteParse(b *testing.B) {
	s, err := datagen.Enterprise1().Generate()
	if err != nil {
		b.Fatal(err)
	}
	p, err := core.New(s, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	m, err := p.BuildModel()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := m.WriteLP(&buf); err != nil {
			b.Fatal(err)
		}
		if _, err := lp.ParseLP(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

// DESIGN.md: volume discounts drive consolidation; flattening every curve
// to its list price removes the segment binaries and changes the packing.
func benchVolumeDiscount(b *testing.B, flat bool) {
	s, err := datagen.Enterprise1().Generate()
	if err != nil {
		b.Fatal(err)
	}
	if flat {
		for j := range s.Target.DCs {
			s.Target.DCs[j].SpaceCost = stepwise.Flat(s.Target.DCs[j].SpaceCost.UnitCostAt(0))
		}
	}
	var plan *model.Plan
	for i := 0; i < b.N; i++ {
		p, err := core.New(s, core.Options{
			Solver: milp.Options{GapTol: 1e-3, TimeLimit: 30 * time.Second},
		})
		if err != nil {
			b.Fatal(err)
		}
		plan, err = p.Solve()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(plan.Stats.Integral), "integral_vars")
	b.ReportMetric(float64(plan.Cost.DCsUsed), "dcs_used")
	b.ReportMetric(plan.Cost.Space, "space_cost_$")
}

func BenchmarkAblation_VolumeDiscount_Tiered(b *testing.B) { benchVolumeDiscount(b, false) }
func BenchmarkAblation_VolumeDiscount_Flat(b *testing.B)   { benchVolumeDiscount(b, true) }

// DESIGN.md: Dantzig pricing vs the cycle-proof Bland rule on the same LP.
func benchPricing(b *testing.B, bland bool) {
	s, err := datagen.Enterprise1().Generate()
	if err != nil {
		b.Fatal(err)
	}
	p, err := core.New(s, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	m, err := p.BuildModel()
	if err != nil {
		b.Fatal(err)
	}
	relaxed := m.Relax()
	b.ResetTimer()
	var iters int
	for i := 0; i < b.N; i++ {
		sol, err := simplex.Solve(relaxed, &simplex.Options{Bland: bland})
		if err != nil {
			b.Fatal(err)
		}
		if sol.Status != lp.StatusOptimal {
			b.Fatalf("status %v", sol.Status)
		}
		iters = sol.Iterations
	}
	b.ReportMetric(float64(iters), "simplex_iters")
}

func BenchmarkAblation_Pricing_Dantzig(b *testing.B) { benchPricing(b, false) }
func BenchmarkAblation_Pricing_Bland(b *testing.B)   { benchPricing(b, true) }
