// Command lpsolve is a standalone solver for models in CPLEX LP or MPS
// file format (selected by extension), built on the repository's simplex
// and branch & bound engines — the "optimization engine" box of the
// paper's architecture (Figure 5), usable independently of the planner.
//
// Usage:
//
//	lpsolve [-gap G] [-nodes N] [-timelimit D] [-workers N]
//	        [-trace FILE] [-metrics FILE] [-profile DIR] model.lp|model.mps
//
// The branch & bound search runs -workers goroutines (0 = all CPUs; 1 =
// deterministic sequential search). Ctrl-C cancels the solve gracefully:
// the best incumbent found so far is printed, marked as a partial
// (uncertified-optimal) result.
//
// Observability (all off by default, zero cost when off): -trace streams
// structured solve events as JSONL (byte-stable across runs at
// -workers 1); -metrics writes the solve metrics snapshot JSON;
// -profile writes cpu.pprof and heap.pprof into a directory.
//
// Exit codes: 0 — solved to proven (gap-tolerance) optimality, or a
// conclusive infeasible/unbounded verdict; 3 — a budget or limit stopped
// the search but a certified feasible incumbent was surrendered
// (degraded-but-feasible); 1 — failure: no usable answer.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"time"

	"github.com/etransform/etransform/internal/certify"
	"github.com/etransform/etransform/internal/lp"
	"github.com/etransform/etransform/internal/milp"
	"github.com/etransform/etransform/internal/obs"
	"github.com/etransform/etransform/internal/resilience/faultinject"
	"github.com/etransform/etransform/internal/tol"
)

func main() {
	degraded, err := run(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "lpsolve:", err)
		os.Exit(1)
	}
	if degraded {
		os.Exit(3)
	}
}

// run solves the model. degraded reports that a limit stopped the search
// and a feasible-but-unproven incumbent was printed (exit code 3).
func run(args []string) (degraded bool, err error) {
	fs := flag.NewFlagSet("lpsolve", flag.ContinueOnError)
	gap := fs.Float64("gap", tol.Gap, "MILP relative optimality gap")
	nodes := fs.Int("nodes", 200000, "branch & bound node limit")
	timeLimit := fs.Duration("timelimit", 10*time.Minute, "wall-clock limit")
	memBudget := fs.Int64("membudget", 0, "open-node queue memory budget in bytes (0 = unlimited)")
	workers := fs.Int("workers", 0, "branch & bound worker goroutines (0 = all CPUs, 1 = deterministic)")
	traceOut := fs.String("trace", "", "write a structured JSONL solve trace to this file (byte-stable at -workers 1)")
	metricsOut := fs.String("metrics", "", "write the solve metrics snapshot JSON to this file")
	profileDir := fs.String("profile", "", "write cpu.pprof and heap.pprof profiles into this directory")
	faults := fs.String("faults", "", `fault-injection spec, e.g. "pivot@5x2,corrupt" (testing only)`)
	faultSeed := fs.Int64("faultseed", 1, "seed for probabilistic fault injection")
	verbose := fs.Bool("v", false, "print every nonzero variable (default: first 50)")
	if err := fs.Parse(args); err != nil {
		return false, err
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return false, fmt.Errorf("want exactly one LP file argument")
	}
	inject, err := faultinject.ParseSpec(*faults, *faultSeed)
	if err != nil {
		return false, err
	}
	obsrv, err := obs.OpenFileObserver(*traceOut, *metricsOut, *profileDir, *workers == 1)
	if err != nil {
		return false, err
	}
	defer func() {
		if cerr := obsrv.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	path := fs.Arg(0)
	f, err := os.Open(path)
	if err != nil {
		return false, err
	}
	var m *lp.Model
	if strings.HasSuffix(strings.ToLower(path), ".mps") {
		m, err = lp.ParseMPS(f)
	} else {
		m, err = lp.ParseLP(f)
	}
	f.Close()
	if err != nil {
		return false, err
	}
	fmt.Printf("model: %s\n", m.Stats())

	// Ctrl-C cancels the context; the solver surrenders its best
	// incumbent instead of dying mid-search.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	start := time.Now()
	sol, err := milp.SolveContext(ctx, m, &milp.Options{
		GapTol: *gap, MaxNodes: *nodes, TimeLimit: *timeLimit, Workers: *workers,
		MemoryBytes: *memBudget,
		Inject:      inject,
		Trace:       obsrv.Tracer,
		Metrics:     obsrv.Metrics,
	})
	canceled := err != nil && errors.Is(err, context.Canceled) && sol != nil
	if err != nil && !canceled {
		return false, err
	}
	fmt.Printf("status: %v in %v (%d simplex iterations, %d nodes, gap %.3g)\n",
		sol.Status, time.Since(start).Round(time.Millisecond), sol.Iterations, sol.Nodes, sol.Gap)
	if sol.Workers > 0 {
		fmt.Printf("search: %d workers, peak queue %d, wall %v, busy %v\n",
			sol.Workers, sol.PeakQueueDepth,
			sol.WallTime.Round(time.Millisecond), sol.WorkTime.Round(time.Millisecond))
	}
	if canceled {
		if sol.X == nil {
			return false, fmt.Errorf("canceled before any feasible point was found")
		}
		fmt.Printf("canceled: best incumbent so far follows (bound gap %.3g, NOT proven optimal)\n", sol.Gap)
		degraded = true
	} else if sol.Status == lp.StatusNodeLimit {
		if sol.X == nil {
			limit := sol.Limit
			if limit == "" {
				limit = "limit"
			}
			return false, fmt.Errorf("search stopped by %s before any feasible point was found", limit)
		}
		fmt.Printf("degraded: search stopped by %s; best incumbent follows (bound gap %.3g, NOT proven optimal)\n",
			sol.Limit, sol.Gap)
		degraded = true
	} else if !sol.Status.HasSolution() || sol.X == nil {
		if sol.Status != lp.StatusInfeasible && sol.Status != lp.StatusUnbounded {
			return false, fmt.Errorf("solve ended %v before any feasible point was found", sol.Status)
		}
		// Infeasible / unbounded: a conclusive verdict, exit 0.
		return false, nil
	}
	// Every printed solution ships with an independent feasibility
	// certificate: certify re-checks all rows, bounds and integrality
	// directly against the parsed model. Canceled partial incumbents are
	// certified through Check (no claimed-objective comparison — the
	// search did not finish); completed solves go through CheckSolution,
	// which additionally cross-checks the reported objective.
	certOpts := &certify.Options{FeasTol: tol.Accept, IntTol: tol.Accept}
	var cert *certify.Certificate
	if canceled {
		cert, err = certify.Check(m, sol.X, certOpts)
	} else {
		cert, err = certify.CheckSolution(m, sol, certOpts)
	}
	if err != nil {
		return false, err
	}
	if cert != nil {
		fmt.Printf("certificate: %s\n", cert.Summary())
		if err := cert.Err(); err != nil {
			return false, err
		}
	}
	fmt.Printf("objective: %.8g\n", sol.Objective)
	printed := 0
	for j := 0; j < m.NumVars(); j++ {
		v := sol.X[j]
		if tol.IsZero(v) {
			continue
		}
		if !*verbose && printed >= 50 {
			fmt.Printf("  … (%d more nonzero variables; use -v)\n", countNonzero(sol.X)-printed)
			break
		}
		fmt.Printf("  %s = %g\n", m.Var(lp.VarID(j)).Name, v)
		printed++
	}
	return degraded, nil
}

func countNonzero(x []float64) int {
	n := 0
	for _, v := range x {
		if !tol.IsZero(v) {
			n++
		}
	}
	return n
}
