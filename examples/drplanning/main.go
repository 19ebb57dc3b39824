// Integrated disaster recovery planning: consolidate the Enterprise1
// estate while simultaneously choosing a secondary (failover) site for
// every application group and sizing the shared single-failure backup
// pools — the §IV/§VI-C experiment. Compare against naively bolting a
// mirror site onto the as-is estate.
//
//	go run ./examples/drplanning
package main

import (
	"fmt"
	"log"
	"sort"
	"time"

	"github.com/etransform/etransform/internal/baseline"
	"github.com/etransform/etransform/internal/core"
	"github.com/etransform/etransform/internal/datagen"
	"github.com/etransform/etransform/internal/milp"
	"github.com/etransform/etransform/internal/report"
)

func main() {
	state, err := datagen.Enterprise1().Generate()
	if err != nil {
		log.Fatal(err)
	}

	asIsDR, err := baseline.AsIsPlusDR(state)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("as-is + mirror-site DR: %s (buying %d backup servers)\n\n",
		report.Money(asIsDR.OperationalCost()+asIsDR.BackupCapital), asIsDR.TotalBackupServers)

	planner, err := core.New(state, core.Options{
		DR:     true,
		Omega:  0.6, // no DC may hold more than 60% of the app groups
		Solver: milp.Options{GapTol: 5e-3, MaxNodes: 500, TimeLimit: 45 * time.Second},
	})
	if err != nil {
		log.Fatal(err)
	}
	plan, err := planner.Solve()
	if err != nil {
		log.Fatal(err)
	}

	cost := plan.Cost.OperationalCost() + plan.Cost.BackupCapital
	base := asIsDR.OperationalCost() + asIsDR.BackupCapital
	fmt.Printf("eTransform integrated plan: %s (%s vs as-is+DR)\n",
		report.Money(cost), report.Percent((cost-base)/base))
	fmt.Printf("  shared backup pools: %d servers total (vs %d mirrored naively)\n",
		plan.Cost.TotalBackupServers, asIsDR.TotalBackupServers)
	fmt.Printf("  latency violations after failover: %d\n\n", plan.Cost.LatencyViolations)

	ids := make([]string, 0, len(plan.BackupServers))
	for id := range plan.BackupServers {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	fmt.Println("backup pool placement:")
	for _, id := range ids {
		fmt.Printf("  %-12s %4d backup servers\n", id, plan.BackupServers[id])
	}

	// Show a few failover routes.
	fmt.Println("\nsample failover routes (primary → secondary):")
	for i, a := range plan.Assignments {
		if i >= 8 {
			break
		}
		fmt.Printf("  %-8s %s → %s\n", a.GroupID, a.PrimaryDC, a.SecondaryDC)
	}
	fmt.Printf("\nsolver: %d rows × %d cols, gap %.2g\n", plan.Stats.Rows, plan.Stats.Cols, plan.Stats.Gap)
}
