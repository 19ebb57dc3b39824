// Regulated global estate: consolidate a multinational running on real
// geography (geodesic latencies between world metros) under
// data-residency constraints (groups pinned to their users' region) and
// shared-risk separation, then turn the plan into a capacity-safe
// migration schedule.
//
//	go run ./examples/regulated
package main

import (
	"fmt"
	"log"
	"sort"
	"time"

	"github.com/etransform/etransform/internal/core"
	"github.com/etransform/etransform/internal/datagen"
	"github.com/etransform/etransform/internal/migrate"
	"github.com/etransform/etransform/internal/milp"
	"github.com/etransform/etransform/internal/model"
	"github.com/etransform/etransform/internal/report"
)

func main() {
	state, err := datagen.Global().Generate()
	if err != nil {
		log.Fatal(err)
	}
	// Business rule: the two largest groups are redundant halves of the
	// payment stack — never co-locate them.
	big1, big2 := largestTwo(state)
	state.Groups[big1].SharedRiskGroup = "payments"
	state.Groups[big2].SharedRiskGroup = "payments"

	residency := 0
	for i := range state.Groups {
		if len(state.Groups[i].AllowedRegions) > 0 {
			residency++
		}
	}
	fmt.Printf("estate: %d groups across %d legacy rooms, %d candidate metros; %d groups region-locked\n\n",
		len(state.Groups), len(state.Current.DCs), len(state.Target.DCs), residency)

	asIs, err := model.EvaluateAsIs(state)
	if err != nil {
		log.Fatal(err)
	}

	planner, err := core.New(state, core.Options{
		ComputeShadowPrices: true,
		Solver:              milp.Options{GapTol: 2e-3, TimeLimit: time.Minute},
	})
	if err != nil {
		log.Fatal(err)
	}
	plan, err := planner.Solve()
	if err != nil {
		log.Fatal(err)
	}

	fmt.Print(report.PlanReport(state, plan))
	saving := (asIs.OperationalCost() - plan.Cost.OperationalCost()) / asIs.OperationalCost()
	fmt.Printf("\nsaves %s vs the as-is estate (%s/month), %d shared-risk violations\n",
		report.Percent(saving), report.Money(asIs.OperationalCost()), plan.Cost.SharedRiskViolations)

	// Residency check: every region-locked group landed in-region.
	for i := range state.Groups {
		g := &state.Groups[i]
		if len(g.AllowedRegions) == 0 {
			continue
		}
		dst := plan.AssignmentFor(g.ID).PrimaryDC
		j := state.Target.DCIndex(dst)
		if state.Target.DCs[j].Location.Region != g.AllowedRegions[0] {
			log.Fatalf("residency violated: %s placed at %s", g.ID, dst)
		}
	}
	fmt.Println("all data-residency constraints satisfied")

	if len(plan.CapacityShadow) > 0 {
		fmt.Println("\nwhere extra capacity would pay (LP shadow prices):")
		ids := make([]string, 0, len(plan.CapacityShadow))
		for id := range plan.CapacityShadow {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		for _, id := range ids {
			fmt.Printf("  %-10s %s per server slot per month\n", id, report.Money(plan.CapacityShadow[id]))
		}
	}

	waves, err := migrate.Schedule(state, plan, migrate.Options{MaxServersPerWave: 200})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nmigration: %d waves of ≤200 servers each\n", len(waves))
	for _, w := range waves {
		fmt.Printf("  wave %d: %d groups, %d servers\n", w.Number, len(w.Moves), w.Servers())
	}
}

func largestTwo(s *model.AsIsState) (int, int) {
	a, b := 0, 1
	if s.Groups[b].Servers > s.Groups[a].Servers {
		a, b = b, a
	}
	for i := 2; i < len(s.Groups); i++ {
		switch {
		case s.Groups[i].Servers > s.Groups[a].Servers:
			a, b = i, a
		case s.Groups[i].Servers > s.Groups[b].Servers:
			b = i
		}
	}
	return a, b
}
