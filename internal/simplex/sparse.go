package simplex

import (
	"fmt"
	"math"
	"time"

	"github.com/etransform/etransform/internal/lp"
	"github.com/etransform/etransform/internal/resilience/faultinject"
	"github.com/etransform/etransform/internal/tol"
)

// This file is the primal pivot loop: devex pricing over maintained
// reduced costs with partial candidate scans, FTRAN/BTRAN against the
// LU + eta-file operator in lu.go, and the refactorization policy
// (eta-count cap, periodic drift check). The ratio test and the
// step/pivot bookkeeping live in simplex.go.

const (
	// devexResetLimit bounds the devex reference weights: when the
	// entering column's weight exceeds it, the current reference
	// framework has drifted too far from the bases it was priced against
	// and every weight is reset to 1 (a fresh framework at the current
	// basis). 1e7 is Forrest & Goldfarb's classic trigger region.
	devexResetLimit = 1e7
	// priceSections is the number of slices partial pricing divides the
	// column range into; one pivot typically prices one or two sections
	// instead of the whole range.
	priceSections = 8
	// priceSectionMin keeps sections from degenerating on small models,
	// where sectioning would only add bookkeeping.
	priceSectionMin = 512
	// priceBufferCap caps the retained candidate buffer.
	priceBufferCap = 64
	// priceBufferMin is the buffer occupancy under which a scan round is
	// run even though the buffer already yielded an entering candidate —
	// a nearly-drained buffer stops representing the attractive set.
	priceBufferMin = 8
)

// iterate runs the revised-simplex pivot loop for the current phase
// until optimal, unbounded or a limit. StatusOptimal means no improving
// column remains (in phase 1: phase-1-optimal, not necessarily
// feasible). Pricing works off maintained (incrementally updated)
// reduced costs, so a terminal verdict is only ever issued after
// recomputing them exactly from the current factors: approximations
// steer the route, never the answer.
func (t *tableau) iterate() (lp.Status, error) {
	const pivTol = tol.Pivot
	// Each phase prices its own cost vector: start from exact reduced
	// costs and a fresh devex framework.
	t.djValid = false
	for {
		if t.iters >= t.opts.maxIters {
			t.limit = lp.LimitIterations
			return lp.StatusIterLimit, nil
		}
		// Cancellation, deadline and drift are polled coarsely — the
		// checks cost a clock read, an atomic load and one residual pass,
		// and 128 pivots is far below any caller-visible latency budget.
		if t.iters&127 == 0 {
			if t.ctx != nil {
				if err := t.ctx.Err(); err != nil {
					return 0, fmt.Errorf("simplex: canceled after %d iterations: %w", t.iters, err)
				}
			}
			if !t.opts.Deadline.IsZero() && time.Now().After(t.opts.Deadline) {
				t.limit = lp.LimitWallClock
				return lp.StatusIterLimit, nil
			}
			if err := t.checkDrift(); err != nil {
				return 0, err
			}
		}
		if t.opts.Inject.Fire(faultinject.SiteStall) {
			// Injected cycling: behave exactly like a stall that exhausted
			// the iteration budget.
			t.limit = lp.LimitIterations
			return lp.StatusIterLimit, nil
		}
		// Eta-file cap: collapse the update chain into a fresh LU before
		// FTRAN/BTRAN cost and accumulated error outgrow the factors.
		if t.la.etas.count() >= t.opts.refactorEvery {
			if err := t.refactorize(); err != nil {
				return 0, err
			}
		}

		var enter int
		var enterDir float64
		if t.blandMode {
			// Bland's rule needs exact reduced costs in index order; the
			// maintained values are bypassed (and invalidated by the
			// pivots) until the stall clears.
			enter, enterDir = t.priceBland()
			if enter < 0 {
				return lp.StatusOptimal, nil
			}
		} else {
			if !t.djValid {
				t.recomputeDj()
				t.resetDevex()
			}
			enter, enterDir = t.priceDevex()
			if enter < 0 && !t.djExact {
				// Maintained values claim optimality; only exact ones may.
				t.recomputeDj()
				enter, enterDir = t.priceDevex()
			}
			if enter < 0 {
				return lp.StatusOptimal, nil
			}
		}
		if t.opts.Inject.Fire(faultinject.SitePivot) {
			return 0, fmt.Errorf("simplex: injected pivot failure at iteration %d (fault injection)", t.iters)
		}

		t.ftran(enter)
		w := t.workCol

		tMax, leaveRow, leaveToUpper := t.ratioTest(enter, enterDir, w)
		if math.IsInf(tMax, 1) {
			if !t.blandMode && !t.djExact && !t.verifyEntering(enter, enterDir) {
				// A drifted maintained reduced cost selected a column that
				// does not actually improve; an unbounded ray from it proves
				// nothing. Recompute and re-price.
				t.recomputeDj()
				continue
			}
			if t.phase == 1 {
				return 0, fmt.Errorf("simplex: phase-1 unbounded (numerical failure)")
			}
			return lp.StatusUnbounded, nil
		}

		t.recordStep(tMax)
		t.stepBasics(enterDir, tMax, w)

		if leaveRow < 0 {
			// Bound flip: the basis (and hence every reduced cost) is
			// unchanged; only the entering variable's status moved.
			t.boundFlip(enter, enterDir)
			continue
		}

		if math.Abs(w[leaveRow]) < pivTol {
			// Numerically unusable pivot: refactorize and retry, or fail.
			if t.refactors < 5 {
				if err := t.refactorize(); err != nil {
					return 0, err
				}
				continue
			}
			return 0, fmt.Errorf("simplex: pivot element %g too small after %d refactorizations", w[leaveRow], t.refactors)
		}

		if t.blandMode || !t.djValid {
			// No maintained state to update (Bland pivots run off exact
			// duals); just pivot and leave dj marked stale.
			t.pivotBasis(enter, leaveRow, enterDir, tMax, leaveToUpper, w)
			t.djValid = false
			continue
		}

		// Devex maintenance needs the pivot row α = ρᵀ·A against the
		// pre-pivot basis: compute it before the basis operator changes,
		// apply the update after the pivot so status[] is current.
		dq := t.dj[enter]
		alphaQ := w[leaveRow]
		gq := t.gamma[enter]
		t.pivotRowAlphas(t.binvRow(leaveRow))
		t.pivotBasis(enter, leaveRow, enterDir, tMax, leaveToUpper, w)
		t.applyDjUpdate(enter, dq, alphaQ, gq)
	}
}

// priceSkip reports that column j can never enter: it is basic, or fixed
// by identical bounds.
func (t *tableau) priceSkip(j int) bool {
	st := t.status[j]
	return st == basic || (tol.Same(t.lower[j], t.upper[j]) && st != freeAtZero)
}

// violation returns the dual infeasibility of nonbasic column j under
// the maintained reduced cost dj[j], and the improving direction.
func (t *tableau) violation(j int) (viol, dir float64) {
	d := t.dj[j]
	switch t.status[j] {
	case atLower:
		return -d, 1
	case atUpper:
		return d, -1
	case freeAtZero:
		if d < 0 {
			return -d, 1
		}
		return d, -1
	}
	return 0, 0
}

// recomputeDj recomputes every priceable reduced cost exactly from the
// current factors (one BTRAN plus one pass over the column nonzeros) and
// marks the maintained state exact. The candidate buffer is dropped: its
// scores came from the values being replaced.
func (t *tableau) recomputeDj() {
	y := t.workRow
	t.computeDuals(y)
	for j := 0; j < t.nTotal; j++ {
		if t.status[j] == basic {
			t.dj[j] = 0
			continue
		}
		t.dj[j] = t.reducedCost(j, y)
	}
	t.djExact = true
	t.djValid = true
	t.cand = t.cand[:0]
}

// resetDevex starts a fresh reference framework at the current basis:
// every weight back to 1.
func (t *tableau) resetDevex() {
	for j := range t.gamma {
		t.gamma[j] = 1
	}
	t.cand = t.cand[:0]
}

// priceDevex picks the entering column maximizing the devex score
// viol²/γ. It prices the retained candidate buffer first; only when the
// buffer is drained (or too thin to trust) does it scan sections of the
// full range from a rotating cursor, refilling the buffer as it goes. A
// -1 return means no eligible column was found in the *entire* range —
// an optimality claim at the maintained values' accuracy.
func (t *tableau) priceDevex() (int, float64) {
	limit := t.nTotal
	enter := -1
	var enterDir float64
	bestScore := 0.0
	priced := 0

	keep := t.cand[:0]
	for _, jc := range t.cand {
		j := int(jc)
		if t.priceSkip(j) {
			continue
		}
		priced++
		viol, dir := t.violation(j)
		if viol <= tol.Opt {
			continue
		}
		keep = append(keep, jc)
		if s := viol * viol / t.gamma[j]; s > bestScore {
			bestScore, enter, enterDir = s, j, dir
		}
	}
	t.cand = keep

	if enter >= 0 && len(t.cand) >= priceBufferMin {
		t.pricedCandidates += int64(priced)
		return enter, enterDir
	}

	// Sectioned scan: price sections in turn from the rotating cursor.
	// Once a section yields an eligible candidate, one more section is
	// priced for quality and the scan stops; with none eligible the scan
	// covers the full range, which is what makes a -1 an optimality
	// claim.
	section := (limit + priceSections - 1) / priceSections
	if section < priceSectionMin {
		section = priceSectionMin
	}
	scanned := 0
	firstHit := -1
	for scanned < limit {
		start := t.scanFrom
		if start >= limit {
			start = 0
		}
		end := start + section
		if end > limit {
			end = limit
		}
		for j := start; j < end; j++ {
			if t.priceSkip(j) {
				continue
			}
			priced++
			viol, dir := t.violation(j)
			if viol <= tol.Opt {
				continue
			}
			if len(t.cand) < priceBufferCap {
				t.cand = append(t.cand, int32(j))
			}
			if s := viol * viol / t.gamma[j]; s > bestScore {
				bestScore, enter, enterDir = s, j, dir
			}
		}
		scanned += end - start
		t.scanFrom = end
		if t.scanFrom >= limit {
			t.scanFrom = 0
		}
		if enter >= 0 {
			if firstHit < 0 {
				firstHit = scanned
			} else if scanned >= firstHit+section {
				break
			}
		}
	}
	t.pricedCandidates += int64(priced)
	return enter, enterDir
}

// priceBland computes exact duals and returns the first eligible column
// in index order — Bland's anti-cycling rule.
func (t *tableau) priceBland() (int, float64) {
	y := t.workRow
	t.computeDuals(y)
	for j := 0; j < t.nTotal; j++ {
		if t.priceSkip(j) {
			continue
		}
		t.pricedCandidates++
		d := t.reducedCost(j, y)
		switch t.status[j] {
		case atLower:
			if tol.Neg(d, tol.Opt) {
				return j, 1
			}
		case atUpper:
			if tol.Pos(d, tol.Opt) {
				return j, -1
			}
		case freeAtZero:
			if tol.Neg(d, tol.Opt) {
				return j, 1
			}
			if tol.Pos(d, tol.Opt) {
				return j, -1
			}
		}
	}
	return -1, 0
}

// verifyEntering recomputes the entering column's reduced cost exactly
// and reports whether it still improves in direction enterDir. Used
// before accepting an unbounded verdict reached through maintained
// values.
func (t *tableau) verifyEntering(enter int, enterDir float64) bool {
	y := t.workRow
	t.computeDuals(y)
	d := t.reducedCost(enter, y)
	if enterDir > 0 {
		return tol.Neg(d, tol.Opt)
	}
	return tol.Pos(d, tol.Opt)
}

// pivotRowAlphas computes the pivot row α = ρᵀ·A sparsely into
// t.alpha/t.alphaNZ: only the rows where ρ is nonzero are visited, via
// the CSR mirror for structural columns and implicitly for the unit
// slack columns.
func (t *tableau) pivotRowAlphas(rho []float64) {
	t.touchStamp++
	stamp := t.touchStamp
	t.alphaNZ = t.alphaNZ[:0]
	n := t.nStruct
	add := func(j int32, v float64) {
		if tol.IsZero(v) {
			return
		}
		if t.touch[j] != stamp {
			t.touch[j] = stamp
			t.alpha[j] = 0
			t.alphaNZ = append(t.alphaNZ, j)
		}
		t.alpha[j] += v
	}
	for r := 0; r < t.m; r++ {
		rr := rho[r]
		if tol.IsZero(rr) {
			continue
		}
		for k := t.rowStart[r]; k < t.rowStart[r+1]; k++ {
			add(t.rowVar[k], rr*t.rowCoef[k])
		}
		// Slack column n+r is the unit column e_r.
		add(int32(n+r), rr)
	}
}

// applyDjUpdate applies the standard reduced-cost and devex-weight
// update for a pivot with entering reduced cost dq, pivot element
// alphaQ and entering weight gq, over the pivot row recorded by
// pivotRowAlphas. Called after pivotBasis, so basic columns (whose
// maintained dj must stay 0) are identified by their updated status —
// in particular the leaving variable, now nonbasic with α = 1, picks up
// its correct new reduced cost −dq/αq.
func (t *tableau) applyDjUpdate(enter int, dq, alphaQ, gq float64) {
	ratio := dq / alphaQ
	gRef := gq / (alphaQ * alphaQ)
	for _, jc := range t.alphaNZ {
		j := int(jc)
		if j == enter || t.status[j] == basic {
			continue
		}
		aj := t.alpha[j]
		t.dj[j] -= ratio * aj
		if g := aj * aj * gRef; g > t.gamma[j] {
			t.gamma[j] = g
		}
	}
	t.dj[enter] = 0
	t.gamma[enter] = 1
	t.djExact = false
	if gq > devexResetLimit {
		t.resetDevex()
	}
}

// checkDrift measures the relative primal residual
// ‖b − A·x‖∞ / max(1, ‖b‖∞) of the full current point and refactorizes
// when it exceeds tol.Drift — the eta chain has then accumulated enough
// floating-point error to threaten the feasibility tolerance. The worst
// value seen is kept for the refactor_drift_max metric.
func (t *tableau) checkDrift() error {
	m := t.m
	t.rhsBuf = reuseF64(t.rhsBuf, m)
	res := t.rhsBuf
	copy(res, t.b)
	for j := 0; j < t.nTotal; j++ {
		v := t.value[j]
		if tol.IsZero(v) {
			continue
		}
		c := t.cols[j]
		for k, r := range c.rows {
			res[r] -= c.coefs[k] * v
		}
	}
	worst := 0.0
	for _, v := range res {
		if a := math.Abs(v); a > worst {
			worst = a
		}
	}
	rel := worst / t.bScale()
	if rel > t.driftMax {
		t.driftMax = rel
	}
	if rel > tol.Drift && t.la.etas.count() > 0 {
		return t.refactorize()
	}
	return nil
}
