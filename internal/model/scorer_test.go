package model

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/etransform/etransform/internal/geo"
	"github.com/etransform/etransform/internal/stepwise"
)

// scorerFamily is one corner of the cost model the scorer must
// reproduce.
type scorerFamily struct {
	pools     string // "none", "shared" or "dedicated"
	secWeight bool   // SecondaryLatencyWeight > 0
	vpn       bool   // dedicated-link WAN instead of per-Mb pricing
	avgLat    bool   // AverageLatencyPenalty
	tiered    bool   // volume-discount space curves
	risk      bool   // shared-risk labels
}

func (f scorerFamily) String() string {
	return fmt.Sprintf("pools=%s/secw=%v/vpn=%v/avg=%v/tiered=%v/risk=%v",
		f.pools, f.secWeight, f.vpn, f.avgLat, f.tiered, f.risk)
}

// randomScorerState draws a small estate whose every cost term is an
// arbitrary float, so that summing the terms in another order changes
// the low bits of the total. Capacities are tight enough that random
// assignments often overfill a site.
func randomScorerState(t *testing.T, rng *rand.Rand, f scorerFamily) *AsIsState {
	t.Helper()
	n := 2 + rng.Intn(5)
	r := 1 + rng.Intn(4)
	s := &AsIsState{Name: "scorer", Params: DefaultParams()}
	s.Params.ServerPowerKW = 0.1 + rng.Float64()
	s.Params.ServersPerAdmin = 50 + 150*rng.Float64()
	s.Params.HoursPerMonth = 700 + 60*rng.Float64()
	s.Params.VPNLinkCapacityMb = 1e3 + 1e6*rng.Float64()
	s.Params.DRServerCost = 300 + 2000*rng.Float64()
	s.Params.SecondaryLatencyWeight = 0
	if f.secWeight {
		s.Params.SecondaryLatencyWeight = 0.05 + 1.5*rng.Float64()
	}
	s.Params.AverageLatencyPenalty = f.avgLat
	for u := 0; u < r; u++ {
		s.UserLocations = append(s.UserLocations, geo.Location{ID: fmt.Sprintf("u%d", u)})
	}
	s.Target.LatencyMs = make([][]float64, r)
	for u := range s.Target.LatencyMs {
		s.Target.LatencyMs[u] = make([]float64, n)
		for j := range s.Target.LatencyMs[u] {
			s.Target.LatencyMs[u][j] = 200 * rng.Float64()
		}
	}
	for j := 0; j < n; j++ {
		space := stepwise.Flat(50 + 100*rng.Float64())
		if f.tiered && rng.Intn(4) > 0 {
			base := 60 + 100*rng.Float64()
			c, err := stepwise.VolumeDiscount(base, float64(1+rng.Intn(8)), 10*rng.Float64(), base/3, 1+rng.Intn(4))
			if err != nil {
				t.Fatal(err)
			}
			space = c
		}
		s.Target.DCs = append(s.Target.DCs, DataCenter{
			ID:                fmt.Sprintf("t%d", j),
			Location:          geo.Location{ID: fmt.Sprintf("loc%d", j), Region: geo.RegionNorthAmerica},
			CapacityServers:   8 + rng.Intn(30),
			SpaceCost:         space,
			PowerCostPerKWh:   0.05 + 0.2*rng.Float64(),
			LaborCostPerAdmin: 4000 + 5000*rng.Float64(),
			WANCostPerMb:      0.05 * rng.Float64(),
		})
	}
	if f.vpn {
		s.Target.VPNLinkMonthly = make([][]float64, n)
		for j := range s.Target.VPNLinkMonthly {
			s.Target.VPNLinkMonthly[j] = make([]float64, r)
			for u := range s.Target.VPNLinkMonthly[j] {
				s.Target.VPNLinkMonthly[j][u] = 2000 * rng.Float64()
			}
		}
	}
	labels := []string{"", "a", "b"}
	groups := 2 + rng.Intn(9)
	for i := 0; i < groups; i++ {
		g := AppGroup{
			ID:              fmt.Sprintf("g%d", i),
			Servers:         1 + rng.Intn(8),
			DataMbPerMonth:  1e5 * rng.Float64(),
			UsersByLocation: make([]int, r),
		}
		if rng.Intn(8) == 0 {
			g.DataMbPerMonth = 0
		}
		for u := range g.UsersByLocation {
			if rng.Intn(3) > 0 {
				g.UsersByLocation[u] = rng.Intn(200)
			}
		}
		if rng.Intn(4) > 0 {
			lo := 20 + 80*rng.Float64()
			pen, err := stepwise.NewLatencyPenalty([]stepwise.PenaltyStep{
				{ThresholdMs: lo, PenaltyPerUser: 1 + 10*rng.Float64()},
				{ThresholdMs: lo + 50, PenaltyPerUser: 12 + 10*rng.Float64()},
			})
			if err != nil {
				t.Fatal(err)
			}
			g.LatencyPenalty = pen
		}
		if f.risk {
			g.SharedRiskGroup = labels[rng.Intn(len(labels))]
		}
		s.Groups = append(s.Groups, g)
	}
	return s
}

// referencePools sizes the pools without the helpers RequiredBackups
// and Scorer share: per (primary, secondary) demand in a map, then the
// largest demand into each secondary (shared) or the sum (dedicated).
func referencePools(s *AsIsState, n int, placement, secondary []int, dedicated bool) []int {
	demand := make(map[[2]int]int)
	for i := range s.Groups {
		demand[[2]int{placement[i], secondary[i]}] += s.Groups[i].Servers
	}
	backups := make([]int, n)
	for key, servers := range demand {
		switch {
		case dedicated:
			backups[key[1]] += servers
		case servers > backups[key[1]]:
			backups[key[1]] = servers
		}
	}
	return backups
}

// TestScorerMatchesEvaluate is the scorer's contract: over random
// states crossed with every pool mode, secondary latency weight, WAN
// model, latency-penalty mode, space-curve shape and shared-risk
// labelling, and over random assignments that overfill sites and put
// primary and secondary together, Scorer.Total equals
// Evaluate(...).Total() under math.Float64bits and reports infeasible
// exactly where Evaluate errors or counts a shared-risk violation. One
// scorer serves every assignment of a state, so its lazily filled table
// and its scratch must carry nothing from one call into the next.
func TestScorerMatchesEvaluate(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	var feasible, overCap, samePair, riskHit int
	for _, pools := range []string{"none", "shared", "dedicated"} {
		for mask := 0; mask < 32; mask++ {
			f := scorerFamily{
				pools:     pools,
				secWeight: mask&1 != 0,
				vpn:       mask&2 != 0,
				avgLat:    mask&4 != 0,
				tiered:    mask&8 != 0,
				risk:      mask&16 != 0,
			}
			for st := 0; st < 4; st++ {
				s := randomScorerState(t, rng, f)
				n := len(s.Target.DCs)
				dedicated := pools == "dedicated"
				sc := NewScorer(s, &s.Target, dedicated)
				for trial := 0; trial < 40; trial++ {
					placement := make([]int, len(s.Groups))
					for i := range placement {
						placement[i] = rng.Intn(n)
					}
					var secondary, backups []int
					if pools != "none" {
						secondary = make([]int, len(s.Groups))
						for i := range secondary {
							// Another site, or now and then the primary's.
							secondary[i] = (placement[i] + 1 + rng.Intn(n-1)) % n
							if rng.Intn(20) == 0 {
								secondary[i] = placement[i]
							}
						}
						if dedicated {
							backups = RequiredBackupsDedicated(s, n, placement, secondary)
						} else {
							backups = RequiredBackups(s, n, placement, secondary)
						}
						if ref := referencePools(s, n, placement, secondary, dedicated); !slices.Equal(backups, ref) {
							t.Fatalf("%v: pools %v, reference %v", f, backups, ref)
						}
					}
					bd, err := Evaluate(s, &s.Target, placement, secondary, backups)
					wantOK := err == nil && bd.SharedRiskViolations == 0
					got, ok := sc.Total(placement, secondary)
					if ok != wantOK {
						t.Fatalf("%v state %d trial %d: scorer ok=%v, Evaluate err=%v shared-risk violations=%d (placement %v, secondary %v)",
							f, st, trial, ok, err, bd.SharedRiskViolations, placement, secondary)
					}
					switch {
					case ok:
						feasible++
						if want := bd.Total(); math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("%v state %d trial %d: scorer %v (%#x), Evaluate %v (%#x)",
								f, st, trial, got, math.Float64bits(got), want, math.Float64bits(want))
						}
					case err == nil:
						riskHit++
					case samePrimary(placement, secondary):
						samePair++
					default:
						overCap++
					}
				}
			}
		}
	}
	t.Logf("feasible %d, over capacity %d, primary = secondary %d, shared risk %d", feasible, overCap, samePair, riskHit)
	// The family must reach every verdict, or the equality proves little.
	if feasible < 3000 || overCap < 2000 || samePair < 1000 || riskHit < 500 {
		t.Fatalf("feasible %d, over capacity %d, primary = secondary %d, shared risk %d: family too narrow",
			feasible, overCap, samePair, riskHit)
	}
}

// samePrimary reports whether some group fails over to its own primary.
func samePrimary(placement, secondary []int) bool {
	for i := range secondary {
		if secondary[i] == placement[i] {
			return true
		}
	}
	return false
}

// TestScorerTotalsWithoutAllocating: once its table is warm, a scorer
// totals an assignment with no heap allocation, whatever the verdict.
func TestScorerTotalsWithoutAllocating(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := randomScorerState(t, rng, scorerFamily{pools: "shared", secWeight: true, vpn: true, tiered: true, risk: true})
	sc := NewScorer(s, &s.Target, false)
	n := len(s.Target.DCs)
	placement := make([]int, len(s.Groups))
	secondary := make([]int, len(s.Groups))
	for i := range placement {
		placement[i] = i % n
		secondary[i] = (i + 1) % n
	}
	if allocs := testing.AllocsPerRun(50, func() { sc.Total(placement, secondary) }); allocs != 0 {
		t.Fatalf("Total allocates %v times per call", allocs)
	}
}
