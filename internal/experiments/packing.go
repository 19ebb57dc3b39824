package experiments

import (
	"context"
	"fmt"
	"math"

	"github.com/etransform/etransform/internal/core"
	"github.com/etransform/etransform/internal/datagen"
	"github.com/etransform/etransform/internal/model"
	"github.com/etransform/etransform/internal/report"
)

// Figure9Result holds §VI-F's space-vs-WAN tradeoff: the per-location
// cost of hosting one full data center's worth of application groups,
// split into space and (dedicated-VPN) WAN.
type Figure9Result struct {
	// Location d's costs for hosting CapacityPerDC single-server groups.
	SpaceCost []float64
	WANCost   []float64
	TotalCost []float64
	// CheapestLocation is the argmin of TotalCost (the paper finds an
	// interior optimum, location 4 of 10).
	CheapestLocation int
	// Spread is max(TotalCost)/min(TotalCost) — the paper reports the
	// best location is 7× cheaper than the worst.
	Spread float64
}

// Figure9 computes the per-location cost curves: space grows along the
// line while VPN links to the far-end users shrink, so the total is
// U-shaped with an interior minimum.
func Figure9() (*Figure9Result, error) {
	cfg := datagen.Fig9Config()
	s, err := cfg.Generate()
	if err != nil {
		return nil, err
	}
	res := &Figure9Result{}
	n := len(s.Target.DCs)
	res.SpaceCost = make([]float64, n)
	res.WANCost = make([]float64, n)
	res.TotalCost = make([]float64, n)
	// Cost of filling location d to capacity with representative groups.
	g := &s.Groups[0]
	perDC := float64(cfg.CapacityPerDC)
	for d := 0; d < n; d++ {
		res.SpaceCost[d] = s.Target.DCs[d].SpaceCost.MustEval(perDC)
		res.WANCost[d] = model.WANCostAt(g, &s.Target, &s.Params, d) * perDC
		res.TotalCost[d] = res.SpaceCost[d] + res.WANCost[d]
	}
	best, worst := 0, 0
	for d := 1; d < n; d++ {
		if res.TotalCost[d] < res.TotalCost[best] {
			best = d
		}
		if res.TotalCost[d] > res.TotalCost[worst] {
			worst = d
		}
	}
	res.CheapestLocation = best
	if res.TotalCost[best] > 0 {
		res.Spread = res.TotalCost[worst] / res.TotalCost[best]
	}
	return res, nil
}

// Render draws the Figure 9 curves.
func (r *Figure9Result) Render() string {
	xs := make([]float64, len(r.TotalCost))
	for d := range xs {
		xs[d] = float64(d)
	}
	out := "Tradeoff between Space Cost and WAN Cost\n" +
		report.SweepTable("location", xs, []report.Series{
			{Name: "space cost", Points: r.SpaceCost},
			{Name: "WAN cost", Points: r.WANCost},
			{Name: "total cost", Points: r.TotalCost},
		})
	out += fmt.Sprintf("cheapest location: %d (%.1fx cheaper than the most expensive)\n",
		r.CheapestLocation, r.Spread)
	return out
}

// Fig10GroupCounts is Figure 10's x-axis.
var Fig10GroupCounts = []int{100, 200, 300, 400, 500, 600, 700}

// Figure10Result records, for each group count, how many data centers
// eTransform uses and in which order locations fill.
type Figure10Result struct {
	GroupCounts []int
	DCsUsed     []int
	// FillOrder[k] lists the locations used at GroupCounts[k], in
	// increasing location index.
	FillOrder [][]int
	// CostRank is the per-location total-cost ranking from Figure 9 —
	// the order the paper observes eTransform filling locations in.
	CostRank []int
}

// Figure10 reproduces §VI-F's packing study: tight 100-server locations
// force the planner to open more sites as the estate grows, and it opens
// them in increasing order of Figure 9's total cost. Cancelling ctx
// abandons the sweep after in-flight points finish.
func Figure10(ctx context.Context, sc Scale) (*Figure10Result, error) {
	fig9, err := Figure9()
	if err != nil {
		return nil, err
	}
	res := &Figure10Result{
		GroupCounts: Fig10GroupCounts,
		DCsUsed:     make([]int, len(Fig10GroupCounts)),
		FillOrder:   make([][]int, len(Fig10GroupCounts)),
	}
	res.CostRank = rankByCost(fig9.TotalCost)
	err = ForEachContext(ctx, len(Fig10GroupCounts), sc.sweepWorkers(), func(i int) error {
		n := Fig10GroupCounts[i]
		cfg := datagen.Fig9Config()
		cfg.Groups = n
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
			return fmt.Errorf("experiments: figure 10 (%d groups): %w", n, err)
		}
		res.DCsUsed[i] = plan.Cost.DCsUsed
		used := make(map[string]bool)
		for _, a := range plan.Assignments {
			used[a.PrimaryDC] = true
		}
		var order []int
		for d := range s.Target.DCs {
			if used[s.Target.DCs[d].ID] {
				order = append(order, d)
			}
		}
		res.FillOrder[i] = order
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// rankByCost returns location indices sorted by ascending cost.
func rankByCost(costs []float64) []int {
	idx := make([]int, len(costs))
	for i := range idx {
		idx[i] = i
	}
	for i := 1; i < len(idx); i++ {
		for j := i; j > 0 && costs[idx[j]] < costs[idx[j-1]]; j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
	return idx
}

// Render draws the Figure 10 growth table.
func (r *Figure10Result) Render() string {
	xs := make([]float64, len(r.GroupCounts))
	used := make([]float64, len(r.DCsUsed))
	for i := range r.GroupCounts {
		xs[i] = float64(r.GroupCounts[i])
		used[i] = float64(r.DCsUsed[i])
	}
	out := "Placement by eTransform\n" + report.SweepTable("app groups", xs, []report.Series{
		{Name: "data centers used", Points: used},
	})
	out += fmt.Sprintf("fill order by total cost: %v\n", r.CostRank)
	for i, order := range r.FillOrder {
		out += fmt.Sprintf("  %d groups → locations %v\n", r.GroupCounts[i], order)
	}
	return out
}

// minDCsNeeded is the packing lower bound used by tests: ceil(groups /
// capacity).
func minDCsNeeded(groups, capacityPerDC int) int {
	return int(math.Ceil(float64(groups) / float64(capacityPerDC)))
}
