package core

import (
	"github.com/etransform/etransform/internal/model"
	"github.com/etransform/etransform/internal/tol"
)

// localImprove hill-climbs a feasible (placement, secondary) assignment
// under the shared cost accounting: for each group it tries every
// alternative primary and secondary site, accepting the first
// cost-reducing feasible move, for up to maxPasses sweeps. On DR
// estates the incumbent, not the LP bound, is the weak side of the
// search (see warm.go), so polishing the warm candidates this way is
// what closes most of the primal gap on latency-classed estates. Each
// candidate move is totalled in full by evalTotal.
//
// placement and secondary are modified in place; secondary may be nil
// (non-DR). Returns the final evaluated total cost.
func (b *builder) localImprove(placement, secondary []int, maxPasses int) float64 {
	s := b.s
	n := len(s.Target.DCs)
	cur := b.evalTotal(placement, secondary)
	for pass := 0; pass < maxPasses; pass++ {
		improved := false
		for i := range s.Groups {
			g := &s.Groups[i]
			// Try moving the primary (only to sites whose placement
			// columns exist — candidate pruning may have dropped some).
			oldA := placement[i]
			for a := 0; a < n; a++ {
				if a == oldA || !b.feasiblePrimary(g, a) {
					continue
				}
				if secondary != nil && secondary[i] == a {
					continue
				}
				sec := -1
				if secondary != nil {
					sec = secondary[i]
				}
				if !b.hasColumn(i, a, sec) {
					continue
				}
				placement[i] = a
				if c := b.evalTotal(placement, secondary); c < cur-tol.Tighten {
					cur = c
					oldA = a
					improved = true
				} else {
					placement[i] = oldA
				}
			}
			if secondary == nil {
				continue
			}
			// Try moving the secondary.
			oldB := secondary[i]
			for sb := 0; sb < n; sb++ {
				if sb == oldB || sb == placement[i] || !b.feasibleSecondary(g, sb) {
					continue
				}
				if !b.hasColumn(i, placement[i], sb) {
					continue
				}
				secondary[i] = sb
				if c := b.evalTotal(placement, secondary); c < cur-tol.Tighten {
					cur = c
					oldB = sb
					improved = true
				} else {
					secondary[i] = oldB
				}
			}
		}
		if !improved {
			break
		}
	}
	return cur
}

// evalTotal scores an assignment with the state's scorer, which totals
// it as model.Evaluate would, bit for bit. Infeasible assignments score
// inf(): a site over capacity, primary = secondary, or shared-risk
// co-location, which the MILP forbids, so warm candidates must avoid
// it too.
func (b *builder) evalTotal(placement, secondary []int) float64 {
	if b.scorer == nil {
		b.scorer = model.NewScorer(b.s, &b.s.Target, b.p.opts.DedicatedBackups)
	}
	if c, ok := b.scorer.Total(placement, secondary); ok {
		return c
	}
	return inf()
}

func inf() float64 { return 1e308 }
