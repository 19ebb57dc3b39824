package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/etransform/etransform/internal/milp"
	"github.com/etransform/etransform/internal/model"
	"github.com/etransform/etransform/internal/stepwise"
)

// oracleState is a tiny random estate whose every DC prices space with
// a three-tier volume discount, and its total servers S. The first tier
// ends below S and the second beyond it, and every capacity is at least
// 2S, so the discount tiers straddle S and the space-curve domain is set
// by S, not by capacity.
func oracleState(rng *rand.Rand, groups, dcs int) (*model.AsIsState, int) {
	s := randomState(rng, groups, dcs, 2, true)
	total := 0
	for i := range s.Groups {
		total += s.Groups[i].Servers
	}
	for j := range s.Target.DCs {
		dc := &s.Target.DCs[j]
		dc.CapacityServers = 2*total + rng.Intn(total+1)
		first := 1 + rng.Intn(total/2+1)
		second := total - first + 1 + rng.Intn(total)
		unit := float64(100 + rng.Intn(300))
		curve, err := stepwise.NewCurve([]stepwise.Segment{
			{Width: float64(first), UnitCost: unit},
			{Width: float64(second), UnitCost: unit * (0.4 + 0.4*rng.Float64())},
			{Width: math.Inf(1), UnitCost: unit * (0.05 + 0.2*rng.Float64())},
		})
		if err != nil {
			panic(err)
		}
		dc.SpaceCost = curve
	}
	return s, total
}

// oracleOptimum enumerates every assignment the planner allows — each
// group at a primary that honours its pin and, under DR, a distinct
// secondary — and prices it with model.Evaluate at minimum pools. It
// returns the cheapest total and the largest occupancy (servers plus
// backups) that cheapest plan puts at one DC.
func oracleOptimum(t *testing.T, s *model.AsIsState, dr, dedicated bool) (best float64, peak int) {
	t.Helper()
	n, m := len(s.Target.DCs), len(s.Groups)
	placement := make([]int, m)
	var secondary []int
	if dr {
		secondary = make([]int, m)
	}
	best = math.Inf(1)
	var rec func(i int)
	rec = func(i int) {
		if i == m {
			var backups []int
			switch {
			case dedicated:
				backups = model.RequiredBackupsDedicated(s, n, placement, secondary)
			case dr:
				backups = model.RequiredBackups(s, n, placement, secondary)
			}
			bd, err := model.Evaluate(s, &s.Target, placement, secondary, backups)
			if err != nil {
				return // over capacity
			}
			if total := bd.Total(); total < best {
				best, peak = total, 0
				for _, c := range bd.PerDC {
					peak = max(peak, c.Servers+c.BackupServers)
				}
			}
			return
		}
		g := &s.Groups[i]
		for a := 0; a < n; a++ {
			if g.PinnedDC != "" && g.PinnedDC != s.Target.DCs[a].ID {
				continue
			}
			placement[i] = a
			if !dr {
				rec(i + 1)
				continue
			}
			for b := 0; b < n; b++ {
				if b != a {
					secondary[i] = b
					rec(i + 1)
				}
			}
		}
	}
	rec(0)
	if math.IsInf(best, 1) {
		t.Fatal("oracle: no feasible assignment")
	}
	return best, peak
}

// TestPlannerMatchesBruteForce checks the planner's formulation against
// the cost definition: on tiny random estates with volume-discount space
// curves, DR off and on, shared and dedicated pools, with and without a
// pinned group, the planner's optimum at GapTol 1e-12 must equal the
// cheapest assignment found by enumeration. The shared-pool DR cases
// also check the paper's §IV-B encoding (paperOptimum) against the
// enumeration. At least one case's optimum must put more than S/2
// servers at one DC, so that a space-curve domain cut below S cannot
// pass unseen.
func TestPlannerMatchesBruteForce(t *testing.T) {
	modes := []struct {
		name          string
		dr, dedicated bool
	}{
		{"consolidation", false, false},
		{"dr-shared", true, false},
		{"dr-dedicated", true, true},
	}
	const seeds = 6
	wide := 0
	for _, mode := range modes {
		for seed := int64(1); seed <= seeds; seed++ {
			for _, pin := range []bool{false, true} {
				rng := rand.New(rand.NewSource(seed))
				s, total := oracleState(rng, 5, 3)
				if pin {
					s.Groups[0].PinnedDC = s.Target.DCs[rng.Intn(3)].ID
				}
				want, peak := oracleOptimum(t, s, mode.dr, mode.dedicated)
				if 2*peak > total {
					wide++
				}
				name := fmt.Sprintf("%s seed=%d pin=%v", mode.name, seed, pin)
				p, err := New(s, Options{
					DR: mode.dr, DedicatedBackups: mode.dedicated,
					Solver: milp.Options{GapTol: 1e-12, Workers: 1},
				})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				plan, err := p.Solve()
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if plan.Stats.Degradation != nil {
					t.Fatalf("%s: degraded plan: %s", name, plan.Stats.Degradation.Reason)
				}
				if got := plan.Cost.Total(); math.Abs(got-want) > 1e-9*math.Max(1, want) {
					t.Errorf("%s: planner optimum %.6f, brute force %.6f (S=%d)", name, got, want, total)
				}
				if mode.dr && !mode.dedicated {
					if got := paperOptimum(t, s); math.Abs(got-want) > 1e-9*math.Max(1, want) {
						t.Errorf("%s: paper encoding optimum %.6f, brute force %.6f (S=%d)", name, got, want, total)
					}
				}
			}
		}
	}
	if wide == 0 {
		t.Fatal("no case's optimum holds more than S/2 servers at one DC")
	}
	t.Logf("%d of %d optima hold more than S/2 servers at one DC", wide, len(modes)*seeds*2)
}
