package core

import (
	"math/rand"
	"testing"

	"github.com/etransform/etransform/internal/model"
)

func TestDedicatedBackupsSumDemand(t *testing.T) {
	s := twoDCState(t, 0)
	s.Target.DCs = append(s.Target.DCs, mkDC("third", 100, 70, 0.07, 6000, 0.02))
	s.Target.LatencyMs = [][]float64{{25, 5, 10}, {5, 25, 10}}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}

	shared := solvePlan(t, s, Options{DR: true})
	dedicated := solvePlan(t, s, Options{DR: true, DedicatedBackups: true})

	// Dedicated pools must equal total demand routed per site: overall,
	// exactly the estate's server count (every group fully mirrored).
	total := 0
	for i := range s.Groups {
		total += s.Groups[i].Servers
	}
	if dedicated.Cost.TotalBackupServers != total {
		t.Errorf("dedicated backups = %d, want %d", dedicated.Cost.TotalBackupServers, total)
	}
	// Sharing can never be worse than dedicating.
	if shared.Cost.Total() > dedicated.Cost.Total()+1e-6 {
		t.Errorf("shared plan (%v) costlier than dedicated (%v)", shared.Cost.Total(), dedicated.Cost.Total())
	}
	if shared.Cost.TotalBackupServers > dedicated.Cost.TotalBackupServers {
		t.Errorf("shared pool (%d) larger than dedicated (%d)",
			shared.Cost.TotalBackupServers, dedicated.Cost.TotalBackupServers)
	}
}

func TestShadowPrices(t *testing.T) {
	s := twoDCState(t, 0)
	// Tighten the cheap DC so its capacity binds: one more slot there is
	// worth the per-server saving vs the expensive DC.
	s.Target.DCs[0].CapacityServers = 25
	plan := solvePlan(t, s, Options{ComputeShadowPrices: true})
	shadow, ok := plan.CapacityShadow["cheap"]
	if !ok || shadow <= 0 {
		t.Fatalf("binding capacity at 'cheap' has shadow %v, want > 0 (map: %v)", shadow, plan.CapacityShadow)
	}
	// The marginal value of a slot at the cheap site is approximately the
	// per-server cost difference between the sites (plus the marginal
	// group's per-server WAN difference, which is small here).
	cheapCost := s.Target.DCs[0].SpaceCost.UnitCostAt(0) + model.ServerMonthlyCost(&s.Target.DCs[0], &s.Params)
	nearCost := s.Target.DCs[1].SpaceCost.UnitCostAt(0) + model.ServerMonthlyCost(&s.Target.DCs[1], &s.Params)
	diff := nearCost - cheapCost
	if shadow < diff*0.9 || shadow > diff*1.1 {
		t.Errorf("shadow %v not within 10%% of per-server cost difference %v", shadow, diff)
	}
	// The slack DC has no (or zero) shadow price.
	if v := plan.CapacityShadow["near"]; v != 0 {
		t.Errorf("non-binding capacity has shadow %v", v)
	}
}

func TestShadowPricesAbsentByDefault(t *testing.T) {
	s := twoDCState(t, 0)
	plan := solvePlan(t, s, Options{})
	if plan.CapacityShadow != nil {
		t.Errorf("shadow prices computed without the option: %v", plan.CapacityShadow)
	}
}

// TestDedicatedVsSharedOnRandomInstances: sharing ≤ dedicated always.
func TestDedicatedVsSharedOnRandomInstances(t *testing.T) {
	rng := rand.New(rand.NewSource(8181))
	trials := 10
	if testing.Short() {
		trials = 3
	}
	for trial := 0; trial < trials; trial++ {
		s := randomState(rng, 4, 3, 2, true)
		for j := range s.Target.DCs {
			s.Target.DCs[j].CapacityServers *= 4
		}
		if err := s.Validate(); err != nil {
			t.Fatal(err)
		}
		shared := solvePlan(t, s, Options{DR: true})
		dedicated := solvePlan(t, s, Options{DR: true, DedicatedBackups: true})
		if shared.Cost.Total() > dedicated.Cost.Total()*(1+1e-6)+1e-6 {
			t.Fatalf("trial %d: shared %v > dedicated %v", trial, shared.Cost.Total(), dedicated.Cost.Total())
		}
	}
}
