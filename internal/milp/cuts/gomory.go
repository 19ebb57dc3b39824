package cuts

import (
	"fmt"
	"math"

	"github.com/etransform/etransform/internal/lp"
	"github.com/etransform/etransform/internal/simplex"
	"github.com/etransform/etransform/internal/tol"
)

// Derivation epsilons, aliased locally for brevity: gmiCoefZero treats
// tableau read-back noise as zero, gmiIntEps recognizes integral
// coefficients/bounds/RHS for integer-slack rounding, gmiDropRel drops
// post-substitution dust relative to the largest coefficient (with the
// mandatory RHS weakening — see dropTiny). The values and their
// rationale live in internal/tol.
const (
	gmiCoefZero = tol.CutCoefZero
	gmiIntEps   = tol.CutIntEps
	gmiDropRel  = tol.CutDropRel
)

// gmiRow bundles everything the GMI derivation needs about one tableau
// row, decoupled from the simplex engine so the validity suite can
// feed synthetic rows and re-run the identical derivation in exact
// rational arithmetic.
//
// Columns 0..n-1 are structural, n+r is the slack of row r (appearing
// with coefficient +1, so slack_r = rhs_r − Σ a_rk·x_k; slack bounds
// encode the row sense). alpha is the dense tableau row B⁻¹[A I],
// beta the basic variable's value, basic its column.
type gmiRow struct {
	n        int
	alpha    []float64
	beta     float64
	basic    int
	status   []simplex.ColStatus
	lower    []float64
	upper    []float64
	integer  []bool      // per column: takes integral values (incl. integer slacks)
	rowTerms [][]lp.Term // original constraint rows, for slack elimination
	rowRHS   []float64
}

// gomoryFromRow derives one Gomory mixed-integer cut from a tableau
// row with a fractional basic integer variable, in three steps:
//
//  1. Shift every nonbasic column to a nonnegative local variable
//     t_j = x_j − l_j (at lower, d_j = ā_rj) or t_j = u_j − x_j (at
//     upper, d_j = −ā_rj), so the row reads x_B(r) + Σ d_j·t_j = β
//     with all t_j ≥ 0 and t_j = 0 at the current vertex. Columns
//     fixed by equal bounds contribute t ≡ 0 and are skipped; a free
//     nonbasic with a real coefficient cannot be shifted and rejects
//     the row.
//  2. Apply the GMI formula with f0 = frac(β): integer-valued t_j
//     (integral column shifted by an integral bound) get
//     min(f_j/f0, (1−f_j)/(1−f0)) with f_j = frac(d_j); continuous
//     t_j get d_j/f0 when d_j > 0 and −d_j/(1−f0) when d_j < 0. The
//     cut is Σ g_j·t_j ≥ 1, violated by exactly 1 at the vertex.
//  3. Substitute the shifts back to x-space, then eliminate slack
//     columns via s_r' = rhs_r' − Σ a_r'k·x_k so the final cut ranges
//     over structural variables only: Terms ≥ RHS.
//
// ok=false means the row was rejected (f0 out of range, unshiftable
// free column, numerical sanity failure, or an undroppable dust
// coefficient). The returned cut still needs finish().
func gomoryFromRow(in *gmiRow, o *Options) (Cut, bool) {
	nTot := len(in.alpha)
	f0 := in.beta - math.Floor(in.beta)
	if f0 < o.minFrac || f0 > 1-o.minFrac {
		return Cut{}, false
	}
	// Sanity: the basic column of its own row must carry coefficient 1.
	if math.Abs(in.alpha[in.basic]-1) > tol.Feas {
		return Cut{}, false
	}

	// Steps 1+2: per-column GMI coefficient in shifted space, folded
	// immediately into x-space coefficients gamma and RHS delta
	// (Σ g·t ≥ 1 with t = ±(x − bound)).
	gamma := make([]float64, nTot)
	delta := 1.0
	for j := 0; j < nTot; j++ {
		if j == in.basic || in.status[j] == simplex.ColBasic {
			continue
		}
		a := in.alpha[j]
		lo, hi := in.lower[j], in.upper[j]
		if tol.Same(lo, hi) {
			continue // fixed: t ≡ 0 contributes nothing
		}
		if in.status[j] == simplex.ColFree {
			if math.Abs(a) > gmiCoefZero {
				return Cut{}, false // cannot shift a free nonbasic
			}
			continue
		}
		if math.Abs(a) <= gmiCoefZero {
			continue
		}
		atUpper := in.status[j] == simplex.ColAtUpper
		d := a
		bound := lo
		if atUpper {
			d = -a
			bound = hi
		}
		// The shifted variable stays integer-valued only when both the
		// column and the shifting bound are integral.
		var g float64
		if in.integer[j] && tol.IsInt(bound, gmiIntEps) {
			f := d - math.Floor(d)
			g = f / f0
			if alt := (1 - f) / (1 - f0); alt < g {
				g = alt
			}
		} else if d > 0 {
			g = d / f0
		} else {
			g = -d / (1 - f0)
		}
		if g <= gmiCoefZero {
			continue
		}
		// Back to x-space: g·t = g·(x−lo) at lower, g·(hi−x) at upper.
		if atUpper {
			gamma[j] -= g
			delta -= g * hi
		} else {
			gamma[j] += g
			delta += g * lo
		}
	}

	// Step 3: eliminate slack columns through their defining rows.
	for j := in.n; j < nTot; j++ {
		gs := gamma[j]
		if tol.IsZero(gs) {
			continue
		}
		r := j - in.n
		for _, t := range in.rowTerms[r] {
			gamma[t.Var] -= gs * t.Coef
		}
		delta -= gs * in.rowRHS[r]
		gamma[j] = 0
	}

	// Assemble over structurals, dropping dust with the mandatory RHS
	// weakening.
	maxC := 0.0
	for j := 0; j < in.n; j++ {
		if a := math.Abs(gamma[j]); a > maxC {
			maxC = a
		}
	}
	if !tol.Pos(maxC, 0) {
		return Cut{}, false
	}
	terms := make([]lp.Term, 0, in.n/8+4)
	for j := 0; j < in.n; j++ {
		g := gamma[j]
		if tol.IsZero(g) {
			continue
		}
		if math.Abs(g) < gmiDropRel*maxC {
			nd, ok := dropTiny(delta, g, in.lower[j], in.upper[j])
			if !ok {
				return Cut{}, false
			}
			delta = nd
			continue
		}
		terms = append(terms, lp.Term{Var: lp.VarID(j), Coef: g})
	}
	return Cut{Terms: terms, Sense: lp.GE, RHS: delta, Kind: "gomory"}, true
}

// dropTiny removes a coefficient g on a variable bounded in [lo, hi]
// from a ≥-cut by weakening the RHS by the largest value g·x can take:
// Σ_rest ≥ δ − g·x ≥ δ − max(g·lo, g·hi) holds for every feasible
// point, so the weakened cut stays valid. ok=false when the needed
// bound is infinite and the coefficient must be kept.
func dropTiny(delta, g, lo, hi float64) (float64, bool) {
	worst := math.Max(g*lo, g*hi)
	if math.IsInf(worst, 0) || math.IsNaN(worst) {
		return delta, false
	}
	return delta - worst, true
}

// integerSlack reports whether the slack of row is integer-valued at
// every integer-feasible point: all coefficients integral, RHS
// integral, and every variable in the row integral. Rounding such a
// slack into the integer part of the GMI formula strengthens the cut.
func integerSlack(terms []lp.Term, rhs float64, isInt []bool) bool {
	if !tol.IsInt(rhs, gmiIntEps) {
		return false
	}
	for _, t := range terms {
		if !isInt[t.Var] || !tol.IsInt(t.Coef, gmiIntEps) {
			return false
		}
	}
	return true
}

// buildGMIInput assembles the row-independent parts of a gmiRow from
// the model and tableau view: column statuses, bounds, per-column
// integrality (including integer-slack recognition) and the original
// rows for slack elimination. The caller fills alpha/beta/basic per
// row. Factored out so the validity suite can re-derive the exact
// same inputs for its rational-arithmetic cross-check.
func buildGMIInput(m *lp.Model, isInt []bool, view *simplex.TableauView) *gmiRow {
	n, nr := view.NumStruct(), view.NumRows()
	nTot := n + nr
	in := &gmiRow{
		n:        n,
		status:   make([]simplex.ColStatus, nTot),
		lower:    make([]float64, nTot),
		upper:    make([]float64, nTot),
		integer:  make([]bool, nTot),
		rowTerms: make([][]lp.Term, nr),
		rowRHS:   make([]float64, nr),
	}
	copy(in.integer, isInt)
	for j := 0; j < nTot; j++ {
		in.status[j] = view.Status(j)
		in.lower[j], in.upper[j] = view.Bounds(j)
	}
	for r := 0; r < nr; r++ {
		row := m.Row(lp.RowID(r))
		in.rowTerms[r] = row.Terms
		in.rowRHS[r] = row.RHS
		in.integer[n+r] = integerSlack(row.Terms, row.RHS, isInt)
	}
	return in
}

// SeparateGomory derives GMI cuts from the optimal tableau of the
// model's LP relaxation. m must be the model the tableau was solved on
// (rows are read for slack elimination; it is typically a relaxation,
// so integrality is supplied separately via isInt, indexed by
// structural variable). Cuts are separated from every row whose basic
// variable is an integer structural with fractional value, then
// normalized and screened by the Options filters. The returned cuts
// are valid for every integer-feasible point of the model — a
// property enforced by this package's validity suite and re-checked
// at run time by the caller.
func SeparateGomory(m *lp.Model, isInt []bool, view *simplex.TableauView, o *Options) []Cut {
	if view == nil || m == nil {
		return nil
	}
	n, nr := view.NumStruct(), view.NumRows()
	if m.NumVars() != n || m.NumRows() != nr || len(isInt) != n {
		return nil
	}
	in := buildGMIInput(m, isInt, view)
	x := make([]float64, n)
	for j := 0; j < n; j++ {
		x[j] = view.Value(j)
	}

	var out []Cut
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
		c, ok := gomoryFromRow(in, o)
		if !ok {
			continue
		}
		c.Name = fmt.Sprintf("gmi_r%d", r)
		if c.finish(x, o) {
			out = append(out, c)
		}
	}
	return out
}
