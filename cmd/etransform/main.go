// Command etransform generates a transformation and consolidation plan
// for an enterprise IT estate: it reads an "as-is" state (JSON), builds
// the consolidation MILP — optionally with an integrated disaster
// recovery plan — solves it, and emits the "to-be" plan and a cost
// report.
//
// Usage:
//
//	etransform -state asis.json [flags]
//
// Typical invocations:
//
//	etransform -state asis.json -report
//	etransform -state asis.json -dr -omega 0.4 -plan tobe.json
//	etransform -state asis.json -lp model.lp        # export for CPLEX
//	etransform -state asis.json -pin ag-0012=target-3 -forbid ag-0040=target-1
//	etransform -state asis.json -workers 1 -trace solve.jsonl -metrics m.json
//	etransform -state asis.json -robust spec.json -samples 500 -seed 7 -robust-out r.json
//
// With -robust the command runs a Monte Carlo robustness batch instead
// of a single solve: the as-is inputs are perturbed -samples times under
// the uncertainty spec (internal/model, "etransform-uncertainty/v1"),
// every scenario is solved to a certified optimum, and the report
// captures the nominal plan's regret distribution, per-decision flip
// rates, and a robustness-ranked plan selection by CVaR(-cvar) regret.
// The JSON report (-robust-out) is byte-identical for one (state, spec,
// -seed, -samples, -cvar) tuple at any -workers value; -plan then writes
// the robustness-ranked choice instead of the nominal plan.
//
// Observability (all off by default, zero cost when off): -trace streams
// structured solve events as JSONL (byte-stable across runs at
// -workers 1); -metrics writes the solve metrics snapshot JSON and
// embeds it in the plan's stats; -profile writes cpu.pprof and
// heap.pprof into a directory.
//
// Exit codes: 0 — plan solved to proven optimality (or recovered to it by
// a retry); 3 — a degraded-but-feasible plan was produced by a budget
// surrender or a fallback stage (the report names the stage and reason);
// 1 — failure: no certified plan.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"github.com/etransform/etransform/internal/core"
	"github.com/etransform/etransform/internal/lp"
	"github.com/etransform/etransform/internal/model"
	"github.com/etransform/etransform/internal/obs"
	"github.com/etransform/etransform/internal/report"
	"github.com/etransform/etransform/internal/resilience/faultinject"
)

func main() {
	degraded, err := run(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "etransform:", err)
		os.Exit(1)
	}
	if degraded {
		os.Exit(3)
	}
}

// multiFlag collects repeated -pin/-forbid flags of the form GROUP=DC.
type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ",") }
func (m *multiFlag) Set(v string) error { *m = append(*m, v); return nil }

// run plans the transformation. degraded reports that the plan came from
// a budget surrender or a fallback stage (exit code 3).
func run(args []string) (degraded bool, err error) {
	fs := flag.NewFlagSet("etransform", flag.ContinueOnError)
	statePath := fs.String("state", "", "path to the as-is state JSON (required)")
	var coreOpts core.Options
	coreOpts.RegisterFlags(fs)
	lpOut := fs.String("lp", "", "write the MILP in CPLEX LP format to this file and exit")
	mpsOut := fs.String("mps", "", "write the MILP in MPS format to this file and exit")
	planOut := fs.String("plan", "", "write the to-be plan JSON to this file")
	showReport := fs.Bool("report", true, "print the human-readable plan report")
	traceOut := fs.String("trace", "", "write a structured JSONL solve trace to this file (byte-stable at -workers 1)")
	metricsOut := fs.String("metrics", "", "write the solve metrics snapshot JSON to this file")
	profileDir := fs.String("profile", "", "write cpu.pprof and heap.pprof profiles into this directory")
	faults := fs.String("faults", "", `fault-injection spec, e.g. "pivot@5x2,corrupt" (testing only)`)
	faultSeed := fs.Int64("faultseed", 1, "seed for probabilistic fault injection")
	robustSpec := fs.String("robust", "", "run a Monte Carlo robustness batch under this uncertainty spec JSON")
	samples := fs.Int("samples", 200, "with -robust: number of sampled scenarios")
	seed := fs.Int64("seed", 1, "with -robust: batch seed (same seed+spec => byte-identical report)")
	cvar := fs.Float64("cvar", 0.9, "with -robust: CVaR tail level alpha in [0,1)")
	robustOut := fs.String("robust-out", "", "with -robust: write the etransform-robust/v1 report JSON to this file")
	var pins, forbids multiFlag
	fs.Var(&pins, "pin", "pin GROUP=DC (repeatable): force a group's primary site")
	fs.Var(&forbids, "forbid", "forbid GROUP=DC (repeatable): exclude a site for a group")
	if err := fs.Parse(args); err != nil {
		return false, err
	}
	if *statePath == "" {
		fs.Usage()
		return false, fmt.Errorf("-state is required")
	}
	inject, err := faultinject.ParseSpec(*faults, *faultSeed)
	if err != nil {
		return false, err
	}
	obsrv, err := obs.OpenFileObserver(*traceOut, *metricsOut, *profileDir, coreOpts.Solver.Workers == 1)
	if err != nil {
		return false, err
	}
	defer func() {
		if cerr := obsrv.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()

	state, err := model.LoadState(*statePath)
	if err != nil {
		return false, err
	}
	coreOpts.Solver.Inject = inject
	coreOpts.Solver.Trace = obsrv.Tracer
	coreOpts.Solver.Metrics = obsrv.Metrics
	if *robustSpec != "" {
		// Per-sample injectors are derived inside the harness from the
		// spec string; the shared injector must not leak into the nominal
		// reference solve or double-arm the samples.
		coreOpts.Solver.Inject = nil
	}
	planner, err := core.New(state, coreOpts)
	if err != nil {
		return false, err
	}
	for _, p := range pins {
		g, dc, err := splitPair(p)
		if err != nil {
			return false, fmt.Errorf("-pin %q: %w", p, err)
		}
		if err := planner.Pin(g, dc); err != nil {
			return false, err
		}
	}
	for _, f := range forbids {
		g, dc, err := splitPair(f)
		if err != nil {
			return false, fmt.Errorf("-forbid %q: %w", f, err)
		}
		if err := planner.Forbid(g, dc); err != nil {
			return false, err
		}
	}

	if *robustSpec != "" {
		return runRobust(state, coreOpts, robustFlags{
			specPath:  *robustSpec,
			samples:   *samples,
			seed:      *seed,
			cvar:      *cvar,
			faults:    *faults,
			faultSeed: *faultSeed,
			reportOut: *robustOut,
			planOut:   *planOut,
			show:      *showReport,
		})
	}

	if *lpOut != "" || *mpsOut != "" {
		m, err := planner.BuildModel()
		if err != nil {
			return false, err
		}
		write := func(path string, enc func(*os.File) error) error {
			if path == "" {
				return nil
			}
			f, err := os.Create(path)
			if err != nil {
				return err
			}
			if err := enc(f); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			fmt.Printf("wrote MILP to %s\n", path)
			return nil
		}
		if err := write(*lpOut, func(f *os.File) error { return m.WriteLP(f) }); err != nil {
			return false, err
		}
		return false, write(*mpsOut, func(f *os.File) error { return m.WriteMPS(f) })
	}

	asIs, err := model.EvaluateAsIs(state)
	if err != nil {
		return false, err
	}
	start := time.Now()
	plan, err := planner.Solve()
	if err != nil {
		return false, err
	}
	elapsed := time.Since(start)
	degraded = printDegradation(plan.Stats.Degradation)

	if *showReport {
		fmt.Print(report.PlanReport(state, plan))
		if len(plan.CapacityShadow) > 0 {
			fmt.Println("capacity shadow prices (LP relaxation, $/server-slot/month):")
			ids := make([]string, 0, len(plan.CapacityShadow))
			for id := range plan.CapacityShadow {
				ids = append(ids, id)
			}
			sort.Strings(ids)
			for _, id := range ids {
				fmt.Printf("  %-12s %s\n", id, report.Money(plan.CapacityShadow[id]))
			}
		}
		opBefore := asIs.OperationalCost()
		opAfter := plan.Cost.OperationalCost() + plan.Cost.BackupCapital
		fmt.Printf("\nas-is cost %s/month across %d data centers\n", report.Money(opBefore), asIs.DCsUsed)
		if opBefore > 0 {
			fmt.Printf("to-be cost %s (%s vs as-is), solved in %v\n",
				report.Money(opAfter), report.Percent((opAfter-opBefore)/opBefore), elapsed.Round(time.Millisecond))
		}
	}
	if *planOut != "" {
		f, err := os.Create(*planOut)
		if err != nil {
			return false, err
		}
		if err := model.WritePlan(f, plan); err != nil {
			f.Close()
			return false, err
		}
		if err := f.Close(); err != nil {
			return false, err
		}
		fmt.Printf("wrote plan to %s\n", *planOut)
	}
	return degraded, nil
}

// printDegradation summarizes a degradation report on stdout and reports
// whether the plan is degraded (exit code 3). A report with Degraded
// false records a recovered retry: worth a line, but still exit 0.
func printDegradation(d *lp.DegradationReport) bool {
	if d == nil {
		return false
	}
	if !d.Degraded {
		fmt.Printf("recovered: stage %s reached the exact optimum after %d attempts\n", d.Stage, len(d.Attempts))
		return false
	}
	fmt.Printf("DEGRADED plan: produced by stage %d (%s)\n", d.StageIndex, d.Stage)
	fmt.Printf("  reason: %s\n", d.Reason)
	if d.Limit != "" {
		fmt.Printf("  limit: %s\n", d.Limit)
	}
	if d.Gap >= 0 {
		fmt.Printf("  certified optimality gap: %.3g\n", d.Gap)
	} else {
		fmt.Println("  certified optimality gap: unknown")
	}
	for _, a := range d.Attempts {
		line := fmt.Sprintf("  attempt %d: %s %s (%dms)", a.Attempt, a.Stage, a.Outcome, a.Millis)
		if a.Error != "" {
			line += ": " + a.Error
		}
		fmt.Println(line)
	}
	return true
}

func splitPair(s string) (group, dc string, err error) {
	i := strings.IndexByte(s, '=')
	if i <= 0 || i == len(s)-1 {
		return "", "", fmt.Errorf("want GROUP=DC")
	}
	return s[:i], s[i+1:], nil
}
