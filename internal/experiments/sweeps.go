package experiments

import (
	"context"
	"fmt"

	"github.com/etransform/etransform/internal/core"
	"github.com/etransform/etransform/internal/datagen"
	"github.com/etransform/etransform/internal/report"
	"github.com/etransform/etransform/internal/tol"
)

// Fig7Penalties is the latency-penalty axis of Figure 7 ($0–$120/user).
var Fig7Penalties = []float64{0, 20, 40, 60, 80, 100, 120}

// Fig7Splits are Figure 7's five user distributions: the fraction of each
// group's users at location 0 (the cheap end); the rest sit at location 9.
var Fig7Splits = []float64{0, 0.25, 0.5, 0.75, 1}

// Fig7SplitName names a split the way the paper's legend does.
func Fig7SplitName(split float64) string {
	switch {
	case tol.Same(split, 0):
		return "all users in location 9"
	case tol.Same(split, 1):
		return "all users in location 0"
	default:
		return fmt.Sprintf("%.0f%% users in location 0", split*100)
	}
}

// Figure7Result holds the three panels of Figure 7: total cost, space
// cost and mean latency, one curve per user distribution over the
// penalty axis.
type Figure7Result struct {
	Penalties []float64
	// TotalCost[split][k] is the plan cost at Fig7Penalties[k].
	TotalCost map[float64][]float64
	SpaceCost map[float64][]float64
	MeanLatMs map[float64][]float64
}

// Figure7 reproduces §VI-D: ten linear locations with rising space cost
// and latency; as the per-user penalty grows, the planner abandons the
// cheap far location and moves groups toward their users. Cancelling ctx
// abandons the sweep after in-flight points finish.
func Figure7(ctx context.Context, sc Scale) (*Figure7Result, error) {
	res := &Figure7Result{
		Penalties: Fig7Penalties,
		TotalCost: make(map[float64][]float64),
		SpaceCost: make(map[float64][]float64),
		MeanLatMs: make(map[float64][]float64),
	}
	// Flatten the (split, penalty) grid into an indexed job list and fan
	// it out; each point is an independent dataset and solve.
	type point struct{ total, space, lat float64 }
	nPen := len(Fig7Penalties)
	points := make([]point, len(Fig7Splits)*nPen)
	err := ForEachContext(ctx, len(points), sc.sweepWorkers(), func(i int) error {
		split, pen := Fig7Splits[i/nPen], Fig7Penalties[i%nPen]
		cfg := datagen.Fig7Config()
		cfg.UserSplit = split
		cfg.PenaltyPerUser = pen
		s, err := cfg.Generate()
		if err != nil {
			return err
		}
		planner, err := core.New(s, core.Options{Solver: sc.solver()})
		if err != nil {
			return err
		}
		plan, err := planner.Solve()
		if err != nil {
			return fmt.Errorf("experiments: figure 7 (split %v, penalty %v): %w", split, pen, err)
		}
		points[i] = point{total: plan.Cost.Total(), space: plan.Cost.Space, lat: meanUserLatency(s, plan)}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, p := range points {
		split := Fig7Splits[i/nPen]
		res.TotalCost[split] = append(res.TotalCost[split], p.total)
		res.SpaceCost[split] = append(res.SpaceCost[split], p.space)
		res.MeanLatMs[split] = append(res.MeanLatMs[split], p.lat)
	}
	return res, nil
}

// Render draws the three panels as sweep tables.
func (r *Figure7Result) Render() string {
	panel := func(title string, data map[float64][]float64) string {
		series := make([]report.Series, 0, len(Fig7Splits))
		for _, split := range Fig7Splits {
			series = append(series, report.Series{Name: Fig7SplitName(split), Points: data[split]})
		}
		return title + "\n" + report.SweepTable("penalty($)", r.Penalties, series) + "\n"
	}
	return panel("(a) Total Cost", r.TotalCost) +
		panel("(b) Space Cost", r.SpaceCost) +
		panel("(c) Average Latency (ms)", r.MeanLatMs)
}

// Fig8Costs is Figure 8's DR-server-cost axis ($10⁰–$10⁴, log).
var Fig8Costs = []float64{1, 10, 100, 1000, 10000}

// Figure8Result holds Figure 8: data centers used and DR servers bought
// as the backup-server price rises.
type Figure8Result struct {
	DRServerCost []float64
	DCsUsed      []int
	DRServers    []int
}

// Figure8 reproduces §VI-E: cheap DR servers favour full consolidation
// (2 sites, a full-estate pool); expensive DR servers favour spreading
// primaries so a small shared pool covers any single failure.
// Cancelling ctx abandons the sweep after in-flight points finish.
func Figure8(ctx context.Context, sc Scale) (*Figure8Result, error) {
	res := &Figure8Result{
		DRServerCost: Fig8Costs,
		DCsUsed:      make([]int, len(Fig8Costs)),
		DRServers:    make([]int, len(Fig8Costs)),
	}
	err := ForEachContext(ctx, len(Fig8Costs), sc.sweepWorkers(), func(i int) error {
		zeta := Fig8Costs[i]
		cfg := datagen.Fig7Config() // same topology, §VI-E: penalty 0
		cfg.PenaltyPerUser = 0
		s, err := cfg.Generate()
		if err != nil {
			return err
		}
		s.Params.DRServerCost = zeta
		s.Params.SecondaryLatencyWeight = 0
		// Secondary sites are cost-symmetric here (§VI-E zeroes every
		// per-placement cost), which makes the LP pool bound loose; a 1%
		// gap resolves the plateau without hours of symmetric branching.
		solver := sc.solver()
		if solver.GapTol < 0.01 {
			solver.GapTol = 0.01
		}
		if solver.MaxNodes > 1500 {
			solver.MaxNodes = 1500
		}
		planner, err := core.New(s, core.Options{DR: true, Solver: solver})
		if err != nil {
			return err
		}
		plan, err := planner.Solve()
		if err != nil {
			return fmt.Errorf("experiments: figure 8 (ζ=%v): %w", zeta, err)
		}
		res.DCsUsed[i] = plan.Cost.DCsUsed
		res.DRServers[i] = plan.Cost.TotalBackupServers
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Render draws Figure 8 as a sweep table.
func (r *Figure8Result) Render() string {
	dcs := make([]float64, len(r.DCsUsed))
	srv := make([]float64, len(r.DRServers))
	for i := range r.DCsUsed {
		dcs[i] = float64(r.DCsUsed[i])
		srv[i] = float64(r.DRServers[i])
	}
	return "Influence of DR Server Cost\n" + report.SweepTable("dr-server-cost($)", r.DRServerCost, []report.Series{
		{Name: "data centers used", Points: dcs},
		{Name: "DR servers", Points: srv},
	})
}
