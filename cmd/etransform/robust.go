package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"github.com/etransform/etransform/internal/core"
	"github.com/etransform/etransform/internal/model"
	"github.com/etransform/etransform/internal/obs"
	"github.com/etransform/etransform/internal/report"
	"github.com/etransform/etransform/internal/robust"
)

// robustFlags carries the -robust mode's flag values into runRobust.
type robustFlags struct {
	specPath  string
	samples   int
	seed      int64
	cvar      float64
	faults    string
	faultSeed int64
	reportOut string
	planOut   string
	show      bool
}

// runRobust executes a Monte Carlo robustness batch: N sampled scenarios
// under the uncertainty spec, the nominal plan's regret distribution,
// per-decision flip rates, and the robustness-ranked plan selection. The
// report written to -robust-out is a pure function of (state, spec,
// -seed, -samples, -cvar) — timing goes to stdout only — so reruns at
// any -workers value produce byte-identical files. Exit code 3 keeps its
// meaning: the nominal reference plan itself was degraded.
func runRobust(state *model.AsIsState, coreOpts core.Options, rf robustFlags) (degraded bool, err error) {
	spec, err := model.LoadUncertaintySpec(rf.specPath)
	if err != nil {
		return false, err
	}
	start := time.Now()
	res, err := robust.Run(context.Background(), state, spec, robust.Options{
		Samples:   rf.samples,
		Seed:      rf.seed,
		Workers:   coreOpts.Solver.Workers,
		CVaRAlpha: rf.cvar,
		Faults:    rf.faults,
		FaultSeed: rf.faultSeed,
		Planner:   coreOpts,
	})
	if err != nil {
		return false, err
	}
	elapsed := time.Since(start)
	r := res.Report

	if rf.show {
		printRobustReport(r, elapsed)
	}
	degraded = printDegradation(res.Nominal.Stats.Degradation)

	if rf.reportOut != "" {
		f, err := os.Create(rf.reportOut)
		if err != nil {
			return degraded, err
		}
		if err := obs.WriteRobustReport(f, r); err != nil {
			f.Close()
			return degraded, err
		}
		if err := f.Close(); err != nil {
			return degraded, err
		}
		fmt.Printf("wrote robustness report to %s\n", rf.reportOut)
	}
	if rf.planOut != "" {
		f, err := os.Create(rf.planOut)
		if err != nil {
			return degraded, err
		}
		if err := model.WritePlan(f, res.Chosen); err != nil {
			f.Close()
			return degraded, err
		}
		if err := f.Close(); err != nil {
			return degraded, err
		}
		fmt.Printf("wrote robustness-ranked plan to %s\n", rf.planOut)
	}
	return degraded, nil
}

// printRobustReport renders the batch summary for humans; the JSON
// report stays the machine interface.
func printRobustReport(r *obs.RobustReport, elapsed time.Duration) {
	fmt.Printf("robustness batch: %s, %d samples, seed %d, cvar alpha %.2f\n",
		r.Dataset, r.Samples, r.Seed, r.CVaRAlpha)
	fmt.Printf("  samples: %d solved, %d excluded (%d degraded)\n",
		r.SamplesSolved, r.SamplesExcluded, r.SamplesDegraded)
	for i, ex := range r.Excluded {
		if i == 5 {
			fmt.Printf("    ... and %d more excluded samples (see the JSON report)\n", len(r.Excluded)-i)
			break
		}
		stage := ex.Stage
		if stage == "" {
			stage = "solve"
		}
		fmt.Printf("    sample %d excluded at %s: %s\n", ex.Index, stage, ex.Reason)
	}
	fmt.Printf("  nominal plan cost %s/month\n", report.Money(r.NominalCost))
	if r.Regret != nil {
		fmt.Printf("  nominal regret over %d samples: mean %s  p50 %s  p90 %s  cvar %s  worst %s\n",
			r.Regret.Count, report.Money(r.Regret.Mean), report.Money(r.Regret.P50),
			report.Money(r.Regret.P90), report.Money(r.Regret.CVaR), report.Money(r.Regret.Max))
	}
	if len(r.Flips) == 0 {
		fmt.Println("  assignment stability: no group changed its optimal site in any sample")
	} else {
		fmt.Printf("  assignment stability: %d groups flip across samples\n", len(r.Flips))
		for i, fl := range r.Flips {
			if i == 5 {
				fmt.Printf("    ... and %d more (see the JSON report)\n", len(r.Flips)-i)
				break
			}
			alt := ""
			if len(fl.Alternatives) > 0 {
				alt = fmt.Sprintf(" -> %s in %d", fl.Alternatives[0].DC, fl.Alternatives[0].Count)
			}
			fmt.Printf("    %-12s flips off %s in %.0f%% of samples%s\n",
				fl.GroupID, fl.NominalDC, 100*fl.FlipRate, alt)
		}
	}
	fmt.Printf("  ranked plans (%d candidates):\n", len(r.Plans))
	for i, p := range r.Plans {
		if i == 5 {
			fmt.Printf("    ... and %d more (see the JSON report)\n", len(r.Plans)-i)
			break
		}
		mark := " "
		if p.Chosen {
			mark = "*"
		}
		fmt.Printf("  %s %d. %s (%s, optimal in %d samples): cost %s  E[regret] %s  cvar %s\n",
			mark, i+1, p.Signature, p.Source, p.SampleCount, report.Money(p.NominalCost),
			report.Money(p.ExpectedRegret), report.Money(p.CVaRRegret))
	}
	chosen := r.Plans[0]
	for _, p := range r.Plans {
		if p.Chosen {
			chosen = p
		}
	}
	fmt.Printf("  chosen plan %s, certified: %s\n", r.Chosen, chosen.Certificate)
	fmt.Printf("batch completed in %v\n", elapsed.Round(time.Millisecond))
}
