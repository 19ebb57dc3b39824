package cuts

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"testing"

	"github.com/etransform/etransform/internal/lp"
	"github.com/etransform/etransform/internal/simplex"
	"github.com/etransform/etransform/internal/tol"
)

// validitySeeds is the size of the full property suite; the check.sh
// smoke runs the first smokeSeeds of the same sequence.
const (
	validitySeeds = 300
	smokeSeeds    = 16
)

// randomMILP builds a small seeded pure-integer model that is feasible
// by construction: a random integer anchor point x0 is drawn first and
// every row's RHS is placed so x0 satisfies it. Every third seed
// produces a binary knapsack shape (positive coefficients, LE rows)
// so the cover separator fires; the rest mix signs, fractional
// coefficients (continuous slacks for the GMI continuous arm) and
// senses.
func randomMILP(seed int64) *lp.Model {
	rng := rand.New(rand.NewSource(seed))
	m := lp.NewModel(fmt.Sprintf("val%d", seed))
	binary := seed%3 == 0
	n := 3 + rng.Intn(4)
	for j := 0; j < n; j++ {
		ub := float64(1 + rng.Intn(3))
		typ := lp.Integer
		if binary {
			ub = 1
			typ = lp.Binary
		}
		m.AddVar(lp.Variable{
			Name:  fmt.Sprintf("x%d", j),
			Upper: ub,
			Cost:  math.Round(rng.NormFloat64()*20) / 2,
			Type:  typ,
		})
	}
	x0 := make([]float64, n)
	for j := range x0 {
		x0[j] = float64(rng.Intn(int(m.Var(lp.VarID(j)).Upper) + 1))
	}
	rows := 2 + rng.Intn(4)
	for r := 0; r < rows; r++ {
		var terms []lp.Term
		act := 0.0
		for j := 0; j < n; j++ {
			if rng.Float64() < 0.35 {
				continue
			}
			c := float64(1 + rng.Intn(5))
			if !binary {
				if rng.Float64() < 0.25 {
					c = -c
				}
				if rng.Float64() < 0.3 {
					c += 0.5
				}
			}
			terms = append(terms, lp.Term{Var: lp.VarID(j), Coef: c})
			act += c * x0[j]
		}
		if len(terms) == 0 {
			continue
		}
		name := fmt.Sprintf("r%d", r)
		switch k := rng.Float64(); {
		case binary || k < 0.6:
			m.AddRow(name, terms, lp.LE, act+float64(rng.Intn(4)))
		case k < 0.9:
			m.AddRow(name, terms, lp.GE, act-float64(rng.Intn(4)))
		default:
			m.AddRow(name, terms, lp.EQ, act)
		}
	}
	return m
}

// enumerateFeasible lists every integer-feasible point of a small
// pure-integer model by walking the bound box.
func enumerateFeasible(m *lp.Model) [][]float64 {
	n := m.NumVars()
	var pts [][]float64
	x := make([]float64, n)
	var rec func(j int)
	rec = func(j int) {
		if j == n {
			if m.CheckFeasible(x, tol.Feas) == nil {
				p := make([]float64, n)
				copy(p, x)
				pts = append(pts, p)
			}
			return
		}
		v := m.Var(lp.VarID(j))
		for val := v.Lower; val <= v.Upper+0.5; val++ {
			x[j] = val
			rec(j + 1)
		}
	}
	rec(0)
	return pts
}

// assertCutPreserves fails the test if the cut eliminates any of the
// known integer-feasible points — the defining property of a valid cut.
func assertCutPreserves(t *testing.T, seed int64, c *Cut, pts [][]float64) {
	t.Helper()
	eps := tol.Feas * math.Max(1, math.Abs(c.RHS))
	for i, p := range pts {
		a := c.Activity(p)
		var viol float64
		switch c.Sense {
		case lp.GE:
			viol = c.RHS - a
		case lp.LE:
			viol = a - c.RHS
		}
		if viol > eps {
			t.Errorf("seed %d: cut %s (%s) eliminates feasible point %d %v: activity %v vs rhs %v (violation %.3g)",
				seed, c.Name, c.Kind, i, p, a, c.RHS, viol)
		}
	}
}

// runValiditySeed solves one seeded model's relaxation, separates both
// cut families, and checks every cut against the enumerated feasible
// set plus the rational-arithmetic GMI cross-check. It returns the
// number of cuts separated so callers can assert the suite is not
// vacuous.
func runValiditySeed(t *testing.T, seed int64) (nGomory, nCover int) {
	t.Helper()
	m := randomMILP(seed)
	if err := m.Err(); err != nil {
		t.Fatalf("seed %d: model build: %v", seed, err)
	}
	relaxed := m.Relax()
	sx := simplex.NewSolver(&simplex.Options{})
	sol, err := sx.Solve(relaxed)
	if err != nil {
		t.Fatalf("seed %d: relaxation solve: %v", seed, err)
	}
	if sol.Status != lp.StatusOptimal {
		return 0, 0 // infeasible relaxation (GE/EQ rows can conflict): nothing to separate
	}
	isInt := make([]bool, m.NumVars())
	for j := range isInt {
		isInt[j] = m.Var(lp.VarID(j)).Type != lp.Continuous
	}
	pts := enumerateFeasible(m)
	o := Options{minViolation: 1e-6, minFrac: 1e-3}.WithDefaults(m.NumVars())

	view := sx.TableauView()
	var gcuts []Cut
	if view != nil {
		gcuts = SeparateGomory(relaxed, isInt, view, &o)
	}
	ccuts := SeparateCovers(relaxed, isInt, sol.X, &o)
	for i := range gcuts {
		c := &gcuts[i]
		if c.violationAt(sol.X) <= 0 {
			t.Errorf("seed %d: %s not violated at the separating point", seed, c.Name)
		}
		assertCutPreserves(t, seed, c, pts)
	}
	for i := range ccuts {
		c := &ccuts[i]
		if c.violationAt(sol.X) <= 0 {
			t.Errorf("seed %d: %s not violated at the separating point", seed, c.Name)
		}
		assertCutPreserves(t, seed, c, pts)
	}
	if view != nil {
		crossCheckRational(t, seed, relaxed, isInt, view, &o)
	}
	return len(gcuts), len(ccuts)
}

func TestCutValidity300(t *testing.T) {
	totalG, totalC, totalPts := 0, 0, 0
	for seed := int64(1); seed <= validitySeeds; seed++ {
		g, c := runValiditySeed(t, seed)
		totalG += g
		totalC += c
		totalPts++
	}
	// The property is vacuous if separation never fires; both families
	// must produce a healthy number of cuts across the suite.
	if totalG < 50 {
		t.Errorf("only %d Gomory cuts separated across %d seeds — suite is near-vacuous", totalG, validitySeeds)
	}
	if totalC < 20 {
		t.Errorf("only %d cover cuts separated across %d seeds — suite is near-vacuous", totalC, validitySeeds)
	}
}

// TestCutValiditySmoke16 is the check.sh subset: the first 16 seeds of
// the same sequence.
func TestCutValiditySmoke16(t *testing.T) {
	for seed := int64(1); seed <= smokeSeeds; seed++ {
		runValiditySeed(t, seed)
	}
}

// ---- exact rational re-derivation of the GMI rows ----

var (
	ratOne      = big.NewRat(1, 1)
	ratCoefZero = new(big.Rat).SetFloat64(gmiCoefZero)
)

// ratFloor returns ⌊r⌋ as a rational. big.Int.Div is floored division
// for the positive denominators big.Rat maintains.
func ratFloor(r *big.Rat) *big.Rat {
	z := new(big.Int).Div(r.Num(), r.Denom())
	return new(big.Rat).SetInt(z)
}

// ratGomoryFromRow mirrors gomoryFromRow step for step in exact
// rational arithmetic over the same float64 inputs (float→rational
// conversion is exact), skipping only the float path's tiny-coefficient
// drop. Branch decisions that gomoryFromRow takes on raw input values
// (status, bounds, |alpha| screens) are reproduced identically, so any
// disagreement beyond accumulated rounding is a derivation bug.
func ratGomoryFromRow(in *gmiRow, o *Options) (map[int]*big.Rat, *big.Rat, bool) {
	nTot := len(in.alpha)
	if f0 := in.beta - math.Floor(in.beta); f0 < o.minFrac || f0 > 1-o.minFrac {
		return nil, nil, false
	}
	if math.Abs(in.alpha[in.basic]-1) > 1e-6 {
		return nil, nil, false
	}
	beta := new(big.Rat).SetFloat64(in.beta)
	f0 := new(big.Rat).Sub(beta, ratFloor(beta))
	oneMinusF0 := new(big.Rat).Sub(ratOne, f0)
	gamma := map[int]*big.Rat{}
	addGamma := func(j int, v *big.Rat) {
		if g, ok := gamma[j]; ok {
			g.Add(g, v)
		} else {
			gamma[j] = new(big.Rat).Set(v)
		}
	}
	delta := new(big.Rat).Set(ratOne)
	for j := 0; j < nTot; j++ {
		if j == in.basic || in.status[j] == simplex.ColBasic {
			continue
		}
		a := in.alpha[j]
		lo, hi := in.lower[j], in.upper[j]
		if tol.Same(lo, hi) {
			continue
		}
		if in.status[j] == simplex.ColFree {
			if math.Abs(a) > gmiCoefZero {
				return nil, nil, false
			}
			continue
		}
		if math.Abs(a) <= gmiCoefZero {
			continue
		}
		atUpper := in.status[j] == simplex.ColAtUpper
		d := new(big.Rat).SetFloat64(a)
		bound := lo
		if atUpper {
			d.Neg(d)
			bound = hi
		}
		g := new(big.Rat)
		if in.integer[j] && tol.IsInt(bound, gmiIntEps) {
			f := new(big.Rat).Sub(d, ratFloor(d))
			g.Quo(f, f0)
			alt := new(big.Rat).Sub(ratOne, f)
			alt.Quo(alt, oneMinusF0)
			if alt.Cmp(g) < 0 {
				g.Set(alt)
			}
		} else if d.Sign() > 0 {
			g.Quo(d, f0)
		} else {
			g.Neg(d)
			g.Quo(g, oneMinusF0)
		}
		if g.Cmp(ratCoefZero) <= 0 {
			continue
		}
		b := new(big.Rat).SetFloat64(bound)
		gb := new(big.Rat).Mul(g, b)
		if atUpper {
			addGamma(j, new(big.Rat).Neg(g))
			delta.Sub(delta, gb)
		} else {
			addGamma(j, g)
			delta.Add(delta, gb)
		}
	}
	for j := in.n; j < nTot; j++ {
		gs, ok := gamma[j]
		if !ok {
			continue
		}
		delete(gamma, j)
		if gs.Sign() == 0 {
			continue
		}
		r := j - in.n
		for _, tm := range in.rowTerms[r] {
			c := new(big.Rat).SetFloat64(tm.Coef)
			c.Mul(c, gs)
			addGamma(int(tm.Var), c.Neg(c))
		}
		rb := new(big.Rat).SetFloat64(in.rowRHS[r])
		rb.Mul(rb, gs)
		delta.Sub(delta, rb)
	}
	return gamma, delta, true
}

// crossCheckRational re-derives every separable GMI row exactly and
// compares coefficients and RHS against the float derivation within
// tolerance.
func crossCheckRational(t *testing.T, seed int64, m *lp.Model, isInt []bool, view *simplex.TableauView, o *Options) {
	t.Helper()
	n, nr := view.NumStruct(), view.NumRows()
	in := buildGMIInput(m, isInt, view)
	var alpha []float64
	for r := 0; r < nr; r++ {
		jb := view.BasicCol(r)
		if jb >= n || !isInt[jb] {
			continue
		}
		beta := view.BasicValue(r)
		if f := beta - math.Floor(beta); f < o.minFrac || f > 1-o.minFrac {
			continue
		}
		alpha = view.Row(r, alpha)
		in.alpha, in.beta, in.basic = alpha, beta, jb
		fc, okF := gomoryFromRow(in, o)
		gamma, delta, okR := ratGomoryFromRow(in, o)
		if okF && !okR {
			t.Errorf("seed %d row %d: float derivation succeeded, rational rejected", seed, r)
			continue
		}
		if !okF {
			// The float path is strictly more conservative (it alone can
			// reject on an undroppable dust coefficient); nothing to compare.
			continue
		}
		scale := math.Max(1, math.Abs(fc.RHS))
		coef := make(map[int]float64, len(fc.Terms))
		for _, tm := range fc.Terms {
			coef[int(tm.Var)] = tm.Coef
			if a := math.Abs(tm.Coef); a > scale {
				scale = a
			}
		}
		for j := 0; j < n; j++ {
			rcRat, ok := gamma[j]
			rc := 0.0
			if ok {
				rc, _ = rcRat.Float64()
			}
			if d := math.Abs(coef[j] - rc); d > 1e-6*scale {
				t.Errorf("seed %d row %d var %d: float coef %v vs rational %v (Δ %.3g)", seed, r, j, coef[j], rc, d)
			}
		}
		rd, _ := delta.Float64()
		if d := math.Abs(fc.RHS - rd); d > 1e-6*scale {
			t.Errorf("seed %d row %d: float rhs %v vs rational %v (Δ %.3g)", seed, r, fc.RHS, rd, d)
		}
	}
}
