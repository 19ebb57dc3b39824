package model

// This file holds the per-(group, site) cost terms and the pool-sizing
// rule that Evaluate sums, and Scorer, which sums the same terms for
// callers that total many assignments of one state: the planner's local
// search scores every candidate move. Both take their terms from the
// helpers below, so the cost accounting exists once.

// primaryCost returns the power, labor and WAN cost of group g running
// at data center j of estate e. With LatencyPenaltyAt it is the group's
// whole share of Evaluate's per-group sums; space is priced per site on
// the total occupancy.
func primaryCost(g *AppGroup, e *Estate, p *CostParams, j int) (power, labor, wan float64) {
	dc := &e.DCs[j]
	power = p.ServerPowerKW * dc.PowerCostPerKWh * p.HoursPerMonth * float64(g.Servers)
	labor = ServerMonthlyCost(dc, p)*float64(g.Servers) - power
	return power, labor, WANCostAt(g, e, p, j)
}

// poolCost returns the monthly power and labor and the purchase capital
// of a backup pool of gj servers at dc.
func poolCost(dc *DataCenter, p *CostParams, gj int) (power, labor, capital float64) {
	power = p.ServerPowerKW * dc.PowerCostPerKWh * p.HoursPerMonth * float64(gj)
	labor = dc.LaborCostPerAdmin / p.ServersPerAdmin * float64(gj)
	capital = p.DRServerCost * float64(gj)
	return power, labor, capital
}

// sizeSharedPools adds to backups the shared single-failure pools that
// placement and secondary imply: at each site b, the largest demand any
// one primary site routes to b. demand is scratch of len(backups)²
// entries that must hold zeros, and holds zeros again on return.
func sizeSharedPools(groups []AppGroup, placement, secondary []int, demand, backups []int) {
	n := len(backups)
	for i := range groups {
		demand[placement[i]*n+secondary[i]] += groups[i].Servers
	}
	// The first group of each (primary, secondary) pair reads the pair's
	// whole demand and clears it, so later members of the pair read 0.
	for i := range groups {
		k, b := placement[i]*n+secondary[i], secondary[i]
		if demand[k] > backups[b] {
			backups[b] = demand[k]
		}
		demand[k] = 0
	}
}

// sizeDedicatedPools adds to backups the dedicated pools secondary
// implies: at each site, the sum of the demand routed there.
func sizeDedicatedPools(groups []AppGroup, secondary []int, backups []int) {
	for i := range groups {
		backups[secondary[i]] += groups[i].Servers
	}
}

// Scorer totals assignments of one state's groups to one estate's data
// centers. Total(placement, secondary) equals
// Evaluate(s, e, placement, secondary, pools).Total() bit for bit, where
// pools are the backups secondary implies under the scorer's pool mode
// (RequiredBackups, or RequiredBackupsDedicated), and nil when secondary
// is nil. It adds the same terms in Evaluate's order, but reads each
// group's per-site terms from a table filled on first use, and totals
// without maps or allocations once the sites it reads have their
// columns. A Scorer is not safe for concurrent use.
type Scorer struct {
	s         *AsIsState
	e         *Estate
	dedicated bool
	n         int
	// cols[j][i] holds group i's terms at data center j. A site's column
	// is allocated when the site is first read, so a scorer that ranks
	// a few constructions over a large estate holds only their sites.
	cols [][]siteTerms
	// risk lists each group that carries a shared-risk label, with the
	// label's index.
	risk []struct{ group, label int }
	// Scratch, zeroed between calls: occupancy and pools per site, pair
	// demand for shared pools, and the risk-label occupancy per site.
	serversAt []int
	backups   []int
	demand    []int
	riskAt    []int
}

// siteTerms is one group's cost terms at one data center, filled in two
// parts: the latency penalty when the site is first seen as a primary
// or a failover site, and the power, labor and WAN terms when it is
// first seen as a primary. A table that fills only what is asked for
// computes no term an Evaluate call over the same assignments would
// not.
type siteTerms struct {
	power, labor, wan, lat float64
	filled                 uint8
}

const (
	latFilled uint8 = 1 << iota
	primaryFilled
)

// NewScorer returns a scorer for s's groups on estate e (s.Target or
// s.Current) whose DR pools are dedicated (RequiredBackupsDedicated)
// when dedicated is set and shared (RequiredBackups) otherwise.
func NewScorer(s *AsIsState, e *Estate, dedicated bool) *Scorer {
	n := len(e.DCs)
	sc := &Scorer{
		s:         s,
		e:         e,
		dedicated: dedicated,
		n:         n,
		cols:      make([][]siteTerms, n),
		serversAt: make([]int, n),
		backups:   make([]int, n),
	}
	labels := make(map[string]int)
	for i := range s.Groups {
		l := s.Groups[i].SharedRiskGroup
		if l == "" {
			continue
		}
		k, ok := labels[l]
		if !ok {
			k = len(labels)
			labels[l] = k
		}
		sc.risk = append(sc.risk, struct{ group, label int }{i, k})
	}
	sc.riskAt = make([]int, len(labels)*n)
	return sc
}

// latency returns group i's terms at site j with the latency part filled.
func (sc *Scorer) latency(i, j int) *siteTerms {
	col := sc.cols[j]
	if col == nil {
		col = make([]siteTerms, len(sc.s.Groups))
		sc.cols[j] = col
	}
	c := &col[i]
	if c.filled&latFilled == 0 {
		c.lat = LatencyPenaltyAt(&sc.s.Groups[i], sc.e, &sc.s.Params, j)
		c.filled |= latFilled
	}
	return c
}

// primary returns group i's terms at site j with every part filled.
func (sc *Scorer) primary(i, j int) *siteTerms {
	c := sc.latency(i, j)
	if c.filled&primaryFilled == 0 {
		c.power, c.labor, c.wan = primaryCost(&sc.s.Groups[i], sc.e, &sc.s.Params, j)
		c.filled |= primaryFilled
	}
	return c
}

// Total returns the cost of placing group i at placement[i] with
// failover site secondary[i] (secondary nil: no DR). ok is false exactly
// where the matching Evaluate call returns an error (a bad index or
// length, primary = secondary, a site over capacity, a space-curve
// error) or counts a shared-risk violation; total is then 0.
func (sc *Scorer) Total(placement, secondary []int) (total float64, ok bool) {
	total, ok = sc.total(placement, secondary)
	clear(sc.serversAt)
	return total, ok
}

// total is Total over the occupancy scratch, which it leaves dirty.
func (sc *Scorer) total(placement, secondary []int) (float64, bool) {
	groups := sc.s.Groups
	n := sc.n
	if len(placement) != len(groups) || (secondary != nil && len(secondary) != len(groups)) {
		return 0, false
	}
	p := &sc.s.Params
	var bd CostBreakdown
	for i := range groups {
		j := placement[i]
		if j < 0 || j >= n {
			return 0, false
		}
		sc.serversAt[j] += groups[i].Servers
		c := sc.primary(i, j)
		bd.Power += c.power
		bd.Labor += c.labor
		bd.WAN += c.wan
		bd.Latency += c.lat
		if secondary == nil {
			continue
		}
		sj := secondary[i]
		if sj < 0 || sj >= n || sj == j {
			return 0, false
		}
		if w := p.SecondaryLatencyWeight; w > 0 {
			bd.Latency += sc.latency(i, sj).lat * w
		}
	}

	if secondary != nil {
		if sc.dedicated {
			sizeDedicatedPools(groups, secondary, sc.backups)
		} else {
			if sc.demand == nil {
				sc.demand = make([]int, n*n)
			}
			sizeSharedPools(groups, placement, secondary, sc.demand, sc.backups)
		}
		for j, gj := range sc.backups {
			if gj == 0 {
				continue
			}
			sc.backups[j] = 0
			power, labor, capital := poolCost(&sc.e.DCs[j], p, gj)
			bd.Power += power
			bd.Labor += labor
			bd.BackupCapital += capital
			sc.serversAt[j] += gj
		}
	}

	for j, occ := range sc.serversAt {
		if occ == 0 {
			continue
		}
		dc := &sc.e.DCs[j]
		if occ > dc.CapacityServers {
			return 0, false
		}
		space, err := dc.SpaceCost.Eval(float64(occ))
		if err != nil {
			return 0, false
		}
		bd.Space += space
	}

	if !sc.riskApart(placement) {
		return 0, false
	}
	return bd.Total(), true
}

// riskApart reports whether no two groups sharing a risk label share a
// primary site: Evaluate's SharedRiskViolations is zero.
func (sc *Scorer) riskApart(placement []int) bool {
	apart := true
	for _, r := range sc.risk {
		k := r.label*sc.n + placement[r.group]
		if sc.riskAt[k] > 0 {
			apart = false
		}
		sc.riskAt[k]++
	}
	for _, r := range sc.risk {
		sc.riskAt[r.label*sc.n+placement[r.group]] = 0
	}
	return apart
}
