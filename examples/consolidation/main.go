// Consolidation case study: regenerate the Enterprise1 estate of the
// paper (Figures 2–3: 67 legacy sites, 1070 servers, 190 application
// groups) and consolidate it into 10 candidate locations, comparing
// eTransform against the as-is state and both baseline heuristics —
// the §VI-B experiment.
//
//	go run ./examples/consolidation
package main

import (
	"fmt"
	"log"
	"time"

	"github.com/etransform/etransform/internal/baseline"
	"github.com/etransform/etransform/internal/core"
	"github.com/etransform/etransform/internal/datagen"
	"github.com/etransform/etransform/internal/milp"
	"github.com/etransform/etransform/internal/model"
	"github.com/etransform/etransform/internal/report"
)

func main() {
	state, err := datagen.Enterprise1().Generate()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("estate: %d application groups on %d servers in %d legacy sites; %d candidate targets\n\n",
		len(state.Groups), totalServers(state), len(state.Current.DCs), len(state.Target.DCs))

	asIs, err := model.EvaluateAsIs(state)
	if err != nil {
		log.Fatal(err)
	}

	manual, err := baseline.Manual(state, baseline.ManualOptions{})
	if err != nil {
		log.Fatal(err)
	}
	greedy, err := baseline.Greedy(state, baseline.GreedyOptions{})
	if err != nil {
		log.Fatal(err)
	}

	planner, err := core.New(state, core.Options{
		Solver: milp.Options{GapTol: 1e-3, TimeLimit: time.Minute},
	})
	if err != nil {
		log.Fatal(err)
	}
	plan, err := planner.Solve()
	if err != nil {
		log.Fatal(err)
	}

	labels := []string{"AS-IS", "MANUAL", "GREEDY", "ETRANSFORM"}
	breakdowns := []model.CostBreakdown{asIs, manual.Cost, greedy.Cost, plan.Cost}
	fmt.Print(report.BarChart("Cost for various solutions — enterprise1", report.CostBars(labels, breakdowns), 50))
	fmt.Println()

	rows := make([][]string, len(labels))
	for i, b := range breakdowns {
		op := b.OperationalCost()
		rows[i] = []string{
			labels[i],
			report.Money(op),
			report.Percent((op - asIs.OperationalCost()) / asIs.OperationalCost()),
			fmt.Sprintf("%d", b.LatencyViolations),
			fmt.Sprintf("%d", b.DCsUsed),
		}
	}
	fmt.Print(report.Table([]string{"algorithm", "op cost", "vs as-is", "latency violations", "DCs used"}, rows))

	fmt.Printf("\neTransform plan detail:\n%s", report.PlanReport(state, plan))
}

func totalServers(s *model.AsIsState) int {
	n := 0
	for i := range s.Groups {
		n += s.Groups[i].Servers
	}
	return n
}
