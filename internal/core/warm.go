package core

import (
	"math"
	"slices"

	"github.com/etransform/etransform/internal/model"
	"github.com/etransform/etransform/internal/tol"
)

// This file implements the planner's LP-free primal heuristic. Branch &
// bound on the DR MILP needs a strong incumbent to prune against and
// does not find one by itself. The relaxation is not the weak side: on
// full-scale Enterprise1 DR its pools hold 118.9 servers against 125 in
// the plan stage 2 rounds from it, while the tree, given no warm start,
// runs thousands of nodes without an incumbent. The heuristic
// constructs the structure the optimum actually takes — primaries
// spread over the k cheapest sites with the secondaries routed to a
// common pool site — for every k, and polishes the cheapest
// construction with local search. The same points seed the exact search
// (warmStarts) and, already encoded, are what the last fallback stage
// certifies: it returns the cheapest of them (cheapestWarmPlan).

// heuristicPoint is one concrete assignment: a primary site per group
// and, under DR, a secondary site per group (nil otherwise).
type heuristicPoint struct {
	placement, secondary []int
}

// heuristicPoints returns the LP-free assignments, cheapest first: for
// plain consolidation the greedy packing polished by two local-search
// passes; under DR one pool construction per prefix of the k cheapest
// sites (k ≤ 12), the cheapest polished by three passes.
func (b *builder) heuristicPoints() []heuristicPoint {
	if !b.p.opts.DR {
		placement, ok := b.greedyPlacement()
		if !ok {
			return nil
		}
		if b.improvable() {
			b.localImprove(placement, nil, 2)
		}
		return []heuristicPoint{{placement: placement}}
	}
	s := b.s
	n := len(s.Target.DCs)
	perServer := func(j int) float64 {
		return s.Target.DCs[j].SpaceCost.UnitCostAt(0) + model.ServerMonthlyCost(&s.Target.DCs[j], &s.Params)
	}
	rank := sortedIndices(n, perServer)
	poolRank := b.poolRank()

	var pts []heuristicPoint
	var costs []float64
	for k := 1; k <= min(n, 12); k++ {
		placement, secondary, ok := b.heuristicDRPlacement(rank[:k:k], poolRank)
		if !ok {
			continue
		}
		pts = append(pts, heuristicPoint{placement, secondary})
		costs = append(costs, b.evalTotal(placement, secondary))
	}
	order := sortedIndices(len(pts), func(i int) float64 { return costs[i] })
	sorted := make([]heuristicPoint, len(pts))
	for r, i := range order {
		sorted[r] = pts[i]
	}
	// Local search only lowers the cost, so the polished point stays
	// first. Branch & bound does not find this refinement itself in
	// reasonable time.
	if len(sorted) > 0 && b.improvable() {
		b.localImprove(sorted[0].placement, sorted[0].secondary, 3)
	}
	return sorted
}

// warmStarts encodes the heuristic points as candidate incumbents for
// the exact search.
func (b *builder) warmStarts() [][]float64 {
	var out [][]float64
	for _, pt := range b.heuristicPoints() {
		if x, ok := b.encodePoint(pt.placement, pt.secondary); ok {
			out = append(out, x)
		}
	}
	return out
}

// seedPoint encodes the planner's registered seed plan (SeedPlan) as a
// full variable point for this build, or ok=false when no seed is set
// or the seed names a column this model pruned away. A seed that fails
// to encode is silently unused — it is an accelerator, never a
// requirement.
func (b *builder) seedPoint() ([]float64, bool) {
	if b.p.seedPlacement == nil {
		return nil, false
	}
	return b.encodePoint(b.p.seedPlacement, b.p.seedSecondary)
}

// improvable bounds the local-search effort: on very large estates a
// single sweep costs too much, so polishing is skipped (the structural
// warm starts still apply).
func (b *builder) improvable() bool {
	return len(b.s.Groups)*len(b.s.Target.DCs) <= 50000
}

// hasColumn reports whether the model has a placement column for group
// i at primary a (secondary sec, −1 when non-DR) — false when candidate
// pruning dropped it, in which case warm starts must avoid it too.
func (b *builder) hasColumn(i, a, sec int) bool {
	_, ok := b.varOf[[3]int{b.memberType[i], a, sec}]
	return ok
}

// primaryAvailable reports whether group i may be warm-placed at a: the
// site must be feasible and, under candidate pruning, still have columns.
func (b *builder) primaryAvailable(i, a int) bool {
	g := &b.s.Groups[i]
	if !b.feasiblePrimary(g, a) {
		return false
	}
	if !b.p.opts.DR {
		return b.hasColumn(i, a, -1)
	}
	for sb := range b.s.Target.DCs {
		if sb != a && b.hasColumn(i, a, sb) {
			return true
		}
	}
	return false
}

// greedyPlacement packs groups (largest first) into the cheapest feasible
// site by marginal cost, as a fast primal bound for the solver.
func (b *builder) greedyPlacement() ([]int, bool) {
	s := b.s
	load := make([]int, len(s.Target.DCs))
	placement := make([]int, len(s.Groups))
	order := sortedIndices(len(s.Groups), func(i int) float64 { return -float64(s.Groups[i].Servers) })
	for _, i := range order {
		g := &s.Groups[i]
		best := -1
		bestCost := math.Inf(1)
		for j := range s.Target.DCs {
			if !b.primaryAvailable(i, j) {
				continue
			}
			dc := &s.Target.DCs[j]
			if load[j]+g.Servers > dc.CapacityServers {
				continue
			}
			c := b.primaryCost(g, j)
			if !b.flatSpace[j] {
				c += dc.SpaceCost.MustEval(float64(load[j]+g.Servers)) - dc.SpaceCost.MustEval(float64(load[j]))
			}
			if c < bestCost {
				best, bestCost = j, c
			}
		}
		if best < 0 {
			return nil, false
		}
		placement[i] = best
		load[best] += g.Servers
	}
	return placement, true
}

// heuristicDRPlacement spreads primaries across the given sites
// (load-balanced) and routes secondaries to a common cheap pool site,
// preferring one that hosts no primaries.
func (b *builder) heuristicDRPlacement(prims, poolRank []int) (placement, secondary []int, ok bool) {
	s := b.s
	n := len(s.Target.DCs)

	load := make([]int, n)
	placement = make([]int, len(s.Groups))
	order := sortedIndices(len(s.Groups), func(i int) float64 { return -float64(s.Groups[i].Servers) })
	for _, i := range order {
		g := &s.Groups[i]
		best := -1
		bestRatio := math.Inf(1)
		for _, j := range prims {
			if !b.primaryAvailable(i, j) {
				continue
			}
			dc := &s.Target.DCs[j]
			if load[j]+g.Servers > dc.CapacityServers {
				continue
			}
			ratio := float64(load[j]+g.Servers) / float64(dc.CapacityServers)
			if ratio < bestRatio {
				best, bestRatio = j, ratio
			}
		}
		if best < 0 {
			// Latency-sensitive or pinned groups may have no candidate
			// column inside the chosen prefix (candidate pruning keeps
			// only their own cheapest sites); fall back to the group's
			// cheapest available site with room.
			bestCost := math.Inf(1)
			for j := 0; j < n; j++ {
				if !b.primaryAvailable(i, j) || load[j]+g.Servers > s.Target.DCs[j].CapacityServers {
					continue
				}
				if c := b.primaryCost(g, j); c < bestCost {
					best, bestCost = j, c
				}
			}
			if best < 0 {
				return nil, nil, false
			}
		}
		placement[i] = best
		load[best] += g.Servers
	}

	// The pool site is the cheapest one hosting no primaries (the
	// cheapest outright when primaries fill every site). A group that
	// cannot fail over there takes the first feasible distinct site in
	// pool-cost order.
	pool := poolRank[0]
	for _, j := range poolRank {
		if !slices.Contains(prims, j) {
			pool = j
			break
		}
	}
	cands := append([]int{pool}, poolRank...)
	secondary = make([]int, len(s.Groups))
	for i := range s.Groups {
		g := &s.Groups[i]
		sec := -1
		for _, j := range cands {
			if j != placement[i] && b.feasibleSecondary(g, j) && b.hasColumn(i, placement[i], j) {
				sec = j
				break
			}
		}
		if sec < 0 {
			return nil, nil, false
		}
		secondary[i] = sec
	}

	// Capacity must hold with the implied pools; reroute overflowing
	// secondaries if not.
	if !b.repairPools(placement, secondary) {
		return nil, nil, false
	}
	return placement, secondary, true
}

// repairPools reroutes secondaries away from data centers whose primary
// load plus backup pool would exceed capacity, largest groups first,
// until every site fits (true) or no move helps (false).
func (b *builder) repairPools(placement, secondary []int) bool {
	s := b.s
	n := len(s.Target.DCs)
	idx := sortedIndices(len(s.Groups), func(i int) float64 { return -float64(s.Groups[i].Servers) })
	for pass := 0; pass < 8*n; pass++ {
		load := make([]int, n)
		for i := range s.Groups {
			load[placement[i]] += s.Groups[i].Servers
		}
		backups := b.requiredBackups(placement, secondary)
		over := -1
		for j := 0; j < n; j++ {
			if load[j]+backups[j] > s.Target.DCs[j].CapacityServers {
				over = j
				break
			}
		}
		if over < 0 {
			return true
		}
		moved := false
		for _, i := range idx {
			if secondary[i] != over {
				continue
			}
			g := &s.Groups[i]
			best := -1
			bestCost := math.Inf(1)
			for j := 0; j < n; j++ {
				if j == over || j == placement[i] || !b.feasibleSecondary(g, j) || !b.hasColumn(i, placement[i], j) {
					continue
				}
				// Conservative slack check: the pool at j can grow by at
				// most this group's size.
				if load[j]+backups[j]+g.Servers > s.Target.DCs[j].CapacityServers {
					continue
				}
				if c := b.secondaryCost(g, j); c < bestCost {
					best, bestCost = j, c
				}
			}
			if best >= 0 {
				secondary[i] = best
				moved = true
				break
			}
		}
		if !moved {
			return false
		}
	}
	return false
}

// encodePoint converts a concrete (placement, secondary) into a full
// variable vector for the model: placement counts, pool sizes, and
// space-segment fills. Returns ok=false when a needed column
// was pruned out of the model.
func (b *builder) encodePoint(placement, secondary []int) ([]float64, bool) {
	s := b.s
	x := make([]float64, b.m.NumVars())
	occ := make([]int, len(s.Target.DCs))
	for i := range s.Groups {
		sec := -1
		if secondary != nil {
			sec = secondary[i]
		}
		v, ok := b.varOf[[3]int{b.memberType[i], placement[i], sec}]
		if !ok {
			return nil, false
		}
		x[v]++
		occ[placement[i]] += s.Groups[i].Servers
	}
	if secondary != nil {
		backups := b.requiredBackups(placement, secondary)
		for j, gj := range backups {
			x[b.gVars[j]] = float64(gj)
			occ[j] += gj
		}
	}
	// Fill space segments in order; open the fill-order binaries for
	// every segment actually used.
	for j := range s.Target.DCs {
		if len(b.segVars[j]) == 0 {
			continue
		}
		rem := float64(occ[j])
		for k, u := range b.segVars[j] {
			take := math.Min(rem, b.segWidths[j][k])
			x[u] = take
			rem -= take
			if k >= 1 && take > 0 && len(b.ordVars[j]) >= k {
				x[b.ordVars[j][k-1]] = 1
			}
		}
		if tol.Pos(rem, tol.Tighten) {
			return nil, false
		}
	}
	return x, true
}
