package simplex

import (
	"math"
	"math/big"
	"math/rand"
	"testing"

	"github.com/etransform/etransform/internal/lp"
)

// exactLP solves the continuous relaxation of m in exact rational
// arithmetic: a dense two-phase tableau simplex over big.Rat with
// Bland's rule. It is the reference the engine's tests compare against,
// so it shares no code with the engine — not the model loading, the
// bound handling, the ratio test or phase 1. Every float64 converts to
// a rational exactly, so the verdict is exact for the model as given.
// It returns StatusOptimal (with the objective rounded to the nearest
// float64), StatusInfeasible or StatusUnbounded.
func exactLP(m *lp.Model) (lp.Status, float64) {
	// Substitute x_j = off_j + Σ sign·z over fresh columns z ≥ 0: a finite
	// lower bound shifts, an upper bound alone reflects, a free variable
	// splits in two. A finite range becomes a row z ≤ hi − lo.
	type part struct{ col, sign int }
	n := m.NumVars()
	off := make([]big.Rat, n)
	parts := make([][]part, n)
	var ranged []int // variables with a finite range
	nz := 0
	for j := 0; j < n; j++ {
		v := m.Var(lp.VarID(j))
		switch {
		case !math.IsInf(v.Lower, -1):
			off[j].SetFloat64(v.Lower)
			parts[j] = []part{{nz, 1}}
			if !math.IsInf(v.Upper, 1) {
				ranged = append(ranged, j)
			}
			nz++
		case !math.IsInf(v.Upper, 1):
			off[j].SetFloat64(v.Upper)
			parts[j] = []part{{nz, -1}}
			nz++
		default:
			parts[j] = []part{{nz, 1}, {nz + 1, -1}}
			nz += 2
		}
	}

	// Standard-form rows over the z columns. Rows are held by pointer:
	// a big.Rat must not be copied.
	type row struct {
		a     []big.Rat
		sense lp.Sense
		rhs   big.Rat
	}
	var rows []*row
	var c, tmp big.Rat
	for r := 0; r < m.NumRows(); r++ {
		mr := m.Row(lp.RowID(r))
		rw := &row{a: make([]big.Rat, nz), sense: mr.Sense}
		rw.rhs.SetFloat64(mr.RHS)
		for _, term := range mr.Terms {
			c.SetFloat64(term.Coef)
			for _, p := range parts[term.Var] {
				tmp.SetInt64(int64(p.sign))
				rw.a[p.col].Add(&rw.a[p.col], tmp.Mul(&tmp, &c))
			}
			rw.rhs.Sub(&rw.rhs, tmp.Mul(&c, &off[term.Var]))
		}
		rows = append(rows, rw)
	}
	for _, j := range ranged {
		rw := &row{a: make([]big.Rat, nz), sense: lp.LE}
		rw.a[parts[j][0].col].SetInt64(1)
		rw.rhs.SetFloat64(m.Var(lp.VarID(j)).Upper)
		rw.rhs.Sub(&rw.rhs, &off[j])
		rows = append(rows, rw)
	}

	// Tableau columns: z, then one slack per inequality, then one
	// artificial per row (left at zero when the row's slack can start
	// basic), then the right-hand side. Row R is the objective row:
	// reduced costs, and minus the objective value in the last column.
	R := len(rows)
	nSlack := 0
	for _, rw := range rows {
		if rw.sense != lp.EQ {
			nSlack++
		}
	}
	art0 := nz + nSlack
	W := art0 + R
	T := make([][]big.Rat, R+1)
	for i := range T {
		T[i] = make([]big.Rat, W+1)
	}
	basis := make([]int, R)
	p1Cost := make([]big.Rat, W)
	needPhase1 := false
	s := nz
	for i, rw := range rows {
		ti := T[i]
		for k := range rw.a {
			ti[k].Set(&rw.a[k])
		}
		ti[W].Set(&rw.rhs)
		slack := -1
		switch rw.sense {
		case lp.LE:
			ti[s].SetInt64(1)
			slack, s = s, s+1
		case lp.GE:
			ti[s].SetInt64(-1)
			slack, s = s, s+1
		}
		if ti[W].Sign() < 0 {
			for k := range ti {
				ti[k].Neg(&ti[k])
			}
		}
		if slack >= 0 && ti[slack].Sign() > 0 {
			basis[i] = slack
			continue
		}
		ti[art0+i].SetInt64(1)
		basis[i] = art0 + i
		p1Cost[art0+i].SetInt64(1)
		needPhase1 = true
	}

	var inv, f, ratio, best big.Rat
	var nzk []int
	pivot := func(r, e int) {
		pr := T[r]
		inv.Inv(&pr[e])
		nzk = nzk[:0]
		for k := range pr {
			if pr[k].Sign() != 0 {
				pr[k].Mul(&pr[k], &inv)
				nzk = append(nzk, k)
			}
		}
		for i := range T {
			if i == r || T[i][e].Sign() == 0 {
				continue
			}
			f.Set(&T[i][e])
			for _, k := range nzk {
				T[i][k].Sub(&T[i][k], tmp.Mul(&f, &pr[k]))
			}
		}
		basis[r] = e
	}
	// run minimizes cost from the current basis, letting only columns
	// below limit enter. It reports false when the objective is unbounded.
	run := func(cost []big.Rat, limit int) bool {
		obj := T[R]
		for k := range obj {
			obj[k].SetInt64(0)
		}
		for k := range cost {
			obj[k].Set(&cost[k])
		}
		for i, b := range basis {
			if cost[b].Sign() == 0 {
				continue
			}
			f.Set(&cost[b])
			for k := range T[i] {
				obj[k].Sub(&obj[k], tmp.Mul(&f, &T[i][k]))
			}
		}
		for {
			// Bland: the lowest-index improving column enters, and ratio
			// ties leave by the lowest basic column.
			e := -1
			for k := 0; k < limit; k++ {
				if obj[k].Sign() < 0 {
					e = k
					break
				}
			}
			if e < 0 {
				return true
			}
			r := -1
			for i := 0; i < R; i++ {
				if T[i][e].Sign() <= 0 {
					continue
				}
				ratio.Quo(&T[i][W], &T[i][e])
				if r < 0 {
					r = i
					best.Set(&ratio)
					continue
				}
				if cmp := ratio.Cmp(&best); cmp < 0 || (cmp == 0 && basis[i] < basis[r]) {
					r = i
					best.Set(&ratio)
				}
			}
			if r < 0 {
				return false
			}
			pivot(r, e)
		}
	}

	if needPhase1 {
		run(p1Cost, W)
		if T[R][W].Sign() != 0 {
			return lp.StatusInfeasible, 0
		}
		// Pivot the artificials still basic (at zero) out of the basis. One
		// whose row has no other nonzero sits in a redundant row and stays
		// at zero through every later pivot.
		for i, b := range basis {
			if b < art0 {
				continue
			}
			for k := 0; k < art0; k++ {
				if T[i][k].Sign() != 0 {
					pivot(i, k)
					break
				}
			}
		}
	}

	cost := make([]big.Rat, W)
	var total big.Rat
	for j := 0; j < n; j++ {
		c.SetFloat64(m.Var(lp.VarID(j)).Cost)
		total.Add(&total, tmp.Mul(&c, &off[j]))
		for _, p := range parts[j] {
			tmp.SetInt64(int64(p.sign))
			cost[p.col].Mul(&tmp, &c)
		}
	}
	if !run(cost, art0) {
		return lp.StatusUnbounded, 0
	}
	total.Sub(&total, &T[R][W])
	obj, _ := total.Float64()
	return lp.StatusOptimal, obj
}

// TestExactLPMatchesBruteForce checks the reference itself against
// exhaustive basic-point enumeration on the box-bounded family, which
// is never unbounded: the two must agree on feasibility and optimum.
func TestExactLPMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	trials := 400
	if testing.Short() {
		trials = 60
	}
	optimal := 0
	for trial := 0; trial < trials; trial++ {
		m := randomBoxLP(rng)
		status, obj := exactLP(m)
		want, feasible := bruteForceLP(m, 1e-7)
		if !feasible {
			if status != lp.StatusInfeasible {
				t.Fatalf("trial %d: brute force says infeasible, exact says %v (obj %v)", trial, status, obj)
			}
			continue
		}
		if status != lp.StatusOptimal {
			t.Fatalf("trial %d: brute-force optimum %v, exact status %v", trial, want, status)
		}
		if d := math.Abs(obj - want); d > 1e-6*math.Max(1, math.Abs(want)) {
			t.Fatalf("trial %d: exact obj %v, brute force %v (diff %g)", trial, obj, want, d)
		}
		optimal++
	}
	if optimal == 0 || optimal == trials {
		t.Fatalf("%d of %d trials optimal: the family must exercise both verdicts", optimal, trials)
	}
}
