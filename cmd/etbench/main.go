// Command etbench regenerates every table and figure of the paper's
// evaluation (§VI) and prints them in the same structure the paper
// reports: Table II, Figure 4(a–c) with Tables 4(d,e), Figure 6(a–c)
// with Tables 6(d,e), and Figures 7–10.
//
// Usage:
//
//	etbench [-experiment all|table2|fig4|fig6|fig7|fig8|fig9|fig10] [-scale full|bench]
//	        [-sweep-workers N] [-workers N] [-json FILE -json-pr N]
//	etbench -validate DIR
//
// -json additionally writes a machine-readable report (schema
// etransform-bench/v1, one record per case-study solve: problem size,
// nodes, iterations, workers, certified gap, wall/busy time and plan
// cost); -json-pr stamps the PR number the artifact belongs to.
//
// -validate checks every BENCH_*.json (etransform-bench/v1) and
// ROBUST_*.json (etransform-robust/v1) in DIR against its schema (the
// same strict parses ReadBenchReport/ReadRobustReport apply: unknown
// fields and contract violations are errors) and runs nothing else;
// scripts/check.sh uses it to gate the checked-in perf trajectory and
// the robustness smoke. See docs/benchmarks/README.md for both schemas,
// field by field.
//
// At -scale bench the Federal dataset is shrunk (the shrink factor
// appears in the output) so a full run fits a laptop budget; -scale full
// runs everything at paper size. Independent solves — the fig4/fig6
// datasets and every fig7/fig8/fig10 sweep point — fan out across
// -sweep-workers goroutines (default: all CPUs); -workers sets the
// branch & bound worker count per solve (default: 1 inside a concurrent
// sweep). Output is assembled in a fixed order, so it is identical for
// any worker count.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"github.com/etransform/etransform/internal/datagen"
	"github.com/etransform/etransform/internal/experiments"
	"github.com/etransform/etransform/internal/obs"
	"github.com/etransform/etransform/internal/report"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "etbench:", err)
		os.Exit(1)
	}
}

// validateReports strict-parses every BENCH_*.json and ROBUST_*.json
// under dir and fails on the first file that does not satisfy its
// schema contract. A directory with no reports of either kind is an
// error too — a typo'd path must not read as "all valid".
func validateReports(dir string) error {
	benches, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil {
		return err
	}
	robusts, err := filepath.Glob(filepath.Join(dir, "ROBUST_*.json"))
	if err != nil {
		return err
	}
	if len(benches)+len(robusts) == 0 {
		return fmt.Errorf("no BENCH_*.json or ROBUST_*.json files in %s", dir)
	}
	for _, path := range benches {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		rep, err := obs.ReadBenchReport(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		fmt.Printf("%s: ok (PR %d, %d scenarios)\n", path, rep.PR, len(rep.Scenarios))
	}
	for _, path := range robusts {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		rep, err := obs.ReadRobustReport(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		fmt.Printf("%s: ok (%s, %d samples, %d ranked plans)\n", path, rep.Dataset, rep.Samples, len(rep.Plans))
	}
	return nil
}

func run(args []string) error {
	fs := flag.NewFlagSet("etbench", flag.ContinueOnError)
	experiment := fs.String("experiment", "all", "all | table2 | fig4 | fig6 | fig7 | fig8 | fig9 | fig10")
	scaleName := fs.String("scale", "bench", `"bench" (laptop budget, Federal shrunk) or "full" (paper size)`)
	dataset := fs.String("dataset", "", "restrict fig4/fig6 to one dataset: enterprise1 | florida | federal")
	csvDir := fs.String("csv", "", "also write each experiment's data as CSV into this directory")
	sweepWorkers := fs.Int("sweep-workers", 0, "concurrent sweep points / datasets (0 = all CPUs)")
	solverWorkers := fs.Int("workers", 0, "branch & bound workers per solve (0 = auto)")
	jsonOut := fs.String("json", "", "write a BENCH_<pr>.json perf report of the fig4/fig6 solves to this file")
	jsonPR := fs.Int("json-pr", 0, "PR number stamped into the -json report (required with -json)")
	validateDir := fs.String("validate", "", "validate every BENCH_*.json in this directory against the schema and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *validateDir != "" {
		return validateReports(*validateDir)
	}
	if *jsonOut != "" && *jsonPR <= 0 {
		return fmt.Errorf("-json needs a positive -json-pr")
	}
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			return err
		}
	}
	writeCSV := func(name string, headers []string, rows [][]string) error {
		if *csvDir == "" {
			return nil
		}
		f, err := os.Create(filepath.Join(*csvDir, name))
		if err != nil {
			return err
		}
		if err := report.WriteCSV(f, headers, rows); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}

	var sc experiments.Scale
	switch *scaleName {
	case "bench":
		sc = experiments.BenchScale()
	case "full":
		sc = experiments.FullScale()
	default:
		return fmt.Errorf("unknown scale %q", *scaleName)
	}
	sc.SweepWorkers = *sweepWorkers
	sc.SolverWorkers = *solverWorkers

	run := func(name string, f func() error) error {
		if *experiment != "all" && *experiment != name {
			return nil
		}
		start := time.Now()
		fmt.Printf("==== %s ====\n", name)
		if err := f(); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		fmt.Printf("(%s completed in %v)\n\n", name, time.Since(start).Round(time.Millisecond))
		return nil
	}

	// The -json report accumulates one scenario per fig4/fig6 case-study
	// solve, appended in the fixed render order so the artifact is as
	// deterministic as the text output; counters come from the metrics
	// snapshot the solve embeds in its stats.
	var benchScenarios []obs.BenchScenario

	scenario := func(name string, dr bool, res *experiments.CaseStudyResult) obs.BenchScenario {
		s := obs.BenchScenario{
			Name: name, DR: dr,
			Rows: res.Stats.Rows, Cols: res.Stats.Cols,
			Nodes: res.Stats.Nodes, Iterations: res.Stats.Iterations,
			Workers: res.Stats.Workers, Gap: res.Stats.Gap,
			WallMillis: res.Stats.WallMillis, WorkMillis: res.Stats.WorkMillis,
			Cost: res.Cost("ETRANSFORM"),
		}
		if s.Gap < 0 {
			// A fallback-stage plan carries the −1 "gap unknown" sentinel;
			// the report schema records that explicitly instead of shipping
			// a negative gap (which Validate rightly rejects).
			s.Gap, s.GapUnknown = 0, true
		}
		if m := res.Stats.Metrics; m != nil {
			s.WarmHits = m.Counters[obs.MetricSimplexWarmHits]
			s.WarmMisses = m.Counters[obs.MetricSimplexWarmMisses]
			s.Factorizations = m.Counters[obs.MetricSimplexFactorizations]
			s.EtaUpdates = m.Counters[obs.MetricSimplexEtaUpdates]
			s.PricedCandidates = m.Counters[obs.MetricSimplexPricedCandidates]
			s.RefactorDriftMax = m.Gauges[obs.MetricSimplexRefactorDriftMax]
			s.CutsSeparated = m.Counters[obs.MetricMILPCutsSeparated]
			s.CutsActive = m.Counters[obs.MetricMILPCutsActive]
		}
		return s
	}

	caseStudies := func(fig string, dr bool) error {
		var cfgs []datagen.CaseStudyConfig
		for _, cfg := range []datagen.CaseStudyConfig{datagen.Enterprise1(), datagen.Florida(), datagen.Federal()} {
			if *dataset == "" || cfg.Name == *dataset {
				cfgs = append(cfgs, cfg)
			}
		}
		// Solve the datasets on -sweep-workers goroutines and render them
		// in the fixed order; the smallest-index error wins.
		results := make([]*experiments.CaseStudyResult, len(cfgs))
		scCold := sc
		scCold.CollectMetrics = *jsonOut != ""
		if err := experiments.ForEach(len(cfgs), sc.SweepWorkers, func(i int) error {
			var err error
			results[i], err = experiments.CaseStudy(cfgs[i], scCold, dr)
			return err
		}); err != nil {
			return err
		}
		for i, cfg := range cfgs {
			res := results[i]
			fmt.Print(res.Render())
			fmt.Printf("solver: %d rows × %d cols, %d nodes, gap %.2g, %d workers, wall %dms (busy %dms)\n\n",
				res.Stats.Rows, res.Stats.Cols, res.Stats.Nodes, res.Stats.Gap,
				res.Stats.Workers, res.Stats.WallMillis, res.Stats.WorkMillis)
			benchScenarios = append(benchScenarios, scenario(fig+"/"+cfg.Name, dr, res))
			var rows [][]string
			for _, algo := range experiments.AlgorithmNames {
				b, ok := res.Breakdowns[algo]
				if !ok {
					continue
				}
				rows = append(rows, []string{
					algo,
					strconv.FormatFloat(res.Cost(algo), 'f', 2, 64),
					strconv.FormatFloat(res.Reduction(algo)*100, 'f', 1, 64),
					strconv.Itoa(b.LatencyViolations),
					strconv.FormatFloat(b.Latency, 'f', 2, 64),
				})
			}
			if err := writeCSV(fmt.Sprintf("%s_%s.csv", fig, cfg.Name),
				[]string{"algorithm", "cost", "reduction_pct", "latency_violations", "penalty_paid"}, rows); err != nil {
				return err
			}
		}
		return nil
	}

	steps := []struct {
		name string
		f    func() error
	}{
		{"table2", func() error {
			rows := experiments.TableII(sc)
			fmt.Print(experiments.RenderTableII(rows))
			var crows [][]string
			for _, r := range rows {
				crows = append(crows, []string{r.Name, strconv.Itoa(r.CurrentDCs),
					strconv.Itoa(r.TargetDCs), strconv.Itoa(r.Servers), strconv.Itoa(r.AppGroups)})
			}
			return writeCSV("table2.csv",
				[]string{"dataset", "asis_dcs", "target_dcs", "servers", "app_groups"}, crows)
		}},
		{"fig4", func() error { return caseStudies("fig4", false) }},
		{"fig6", func() error { return caseStudies("fig6", true) }},
		{"fig7", func() error {
			res, err := experiments.Figure7(context.Background(), sc)
			if err != nil {
				return err
			}
			fmt.Print(res.Render())
			panels := map[string]map[float64][]float64{
				"fig7_total_cost.csv": res.TotalCost,
				"fig7_space_cost.csv": res.SpaceCost,
				"fig7_latency_ms.csv": res.MeanLatMs,
			}
			for name, data := range panels {
				headers := []string{"penalty"}
				for _, split := range experiments.Fig7Splits {
					headers = append(headers, experiments.Fig7SplitName(split))
				}
				var crows [][]string
				for k, pen := range res.Penalties {
					row := []string{strconv.FormatFloat(pen, 'f', -1, 64)}
					for _, split := range experiments.Fig7Splits {
						row = append(row, strconv.FormatFloat(data[split][k], 'f', 4, 64))
					}
					crows = append(crows, row)
				}
				if err := writeCSV(name, headers, crows); err != nil {
					return err
				}
			}
			return nil
		}},
		{"fig8", func() error {
			res, err := experiments.Figure8(context.Background(), sc)
			if err != nil {
				return err
			}
			fmt.Print(res.Render())
			var crows [][]string
			for i := range res.DRServerCost {
				crows = append(crows, []string{
					strconv.FormatFloat(res.DRServerCost[i], 'f', -1, 64),
					strconv.Itoa(res.DCsUsed[i]), strconv.Itoa(res.DRServers[i]),
				})
			}
			return writeCSV("fig8.csv", []string{"dr_server_cost", "dcs_used", "dr_servers"}, crows)
		}},
		{"fig9", func() error {
			res, err := experiments.Figure9()
			if err != nil {
				return err
			}
			fmt.Print(res.Render())
			var crows [][]string
			for d := range res.TotalCost {
				crows = append(crows, []string{strconv.Itoa(d),
					strconv.FormatFloat(res.SpaceCost[d], 'f', 2, 64),
					strconv.FormatFloat(res.WANCost[d], 'f', 2, 64),
					strconv.FormatFloat(res.TotalCost[d], 'f', 2, 64)})
			}
			return writeCSV("fig9.csv", []string{"location", "space_cost", "wan_cost", "total_cost"}, crows)
		}},
		{"fig10", func() error {
			res, err := experiments.Figure10(context.Background(), sc)
			if err != nil {
				return err
			}
			fmt.Print(res.Render())
			var crows [][]string
			for i := range res.GroupCounts {
				crows = append(crows, []string{strconv.Itoa(res.GroupCounts[i]), strconv.Itoa(res.DCsUsed[i])})
			}
			return writeCSV("fig10.csv", []string{"app_groups", "dcs_used"}, crows)
		}},
	}
	for _, s := range steps {
		if err := run(s.name, s.f); err != nil {
			return err
		}
	}
	if *jsonOut != "" {
		rep := &obs.BenchReport{
			Schema: obs.BenchSchema, PR: *jsonPR,
			GoVersion: runtime.Version(), CPUs: runtime.NumCPU(),
			CreatedAt: time.Now().UTC().Format(time.RFC3339),
			Scenarios: benchScenarios,
		}
		f, err := os.Create(*jsonOut)
		if err != nil {
			return err
		}
		if err := obs.WriteBenchReport(f, rep); err != nil {
			f.Close()
			return fmt.Errorf("writing %s: %w", *jsonOut, err)
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote bench report to %s\n", *jsonOut)
	}
	return nil
}
