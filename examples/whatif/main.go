// What-if analysis: the admin interface for iterative modification
// (paper Figure 5). Solve the baseline consolidation, then interactively
// tighten it — pin a regulated group to a specific site, forbid a site
// under decommission — re-solving after each change and reporting the
// cost of every constraint.
//
//	go run ./examples/whatif
package main

import (
	"fmt"
	"log"
	"time"

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
	planner, err := core.New(state, core.Options{
		Solver: milp.Options{GapTol: 1e-3, TimeLimit: 30 * time.Second},
	})
	if err != nil {
		log.Fatal(err)
	}

	solve := func(label string) *model.Plan {
		plan, err := planner.Solve()
		if err != nil {
			log.Fatalf("%s: %v", label, err)
		}
		fmt.Printf("%-34s %s/month, %d DCs, %d violations\n",
			label, report.Money(plan.Cost.Total()), plan.Cost.DCsUsed, plan.Cost.LatencyViolations)
		return plan
	}

	baselinePlan := solve("unconstrained optimum:")
	baseCost := baselinePlan.Cost.Total()

	// Scenario 1: compliance pins a group to a specific site.
	pinned := state.Groups[0].ID
	pinTo := "target-5"
	if err := planner.Pin(pinned, pinTo); err != nil {
		log.Fatal(err)
	}
	p1 := solve(fmt.Sprintf("pin %s → %s:", pinned, pinTo))
	fmt.Printf("  cost of that pin: %s/month\n", report.Money(p1.Cost.Total()-baseCost))

	// Scenario 2: a site is being decommissioned — forbid it for a
	// sensitive group.
	victim := baselinePlan.Assignments[1]
	if err := planner.Forbid(victim.GroupID, victim.PrimaryDC); err != nil {
		log.Fatal(err)
	}
	p2 := solve(fmt.Sprintf("also forbid %s at %s:", victim.GroupID, victim.PrimaryDC))
	fmt.Printf("  where it went instead: %s\n", p2.AssignmentFor(victim.GroupID).PrimaryDC)

	// Scenario 3: risk officer caps any site at 40%% of the groups.
	planner2, err := core.New(state, core.Options{
		Omega:  0.4,
		Solver: milp.Options{GapTol: 1e-3, TimeLimit: 30 * time.Second},
	})
	if err != nil {
		log.Fatal(err)
	}
	plan3, err := planner2.Solve()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-34s %s/month, %d DCs\n", "business-impact cap ω=0.4:",
		report.Money(plan3.Cost.Total()), plan3.Cost.DCsUsed)
	fmt.Printf("  cost of spreading risk: %s/month\n", report.Money(plan3.Cost.Total()-baseCost))
}
