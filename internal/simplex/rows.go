package simplex

import "github.com/etransform/etransform/internal/tol"

// This file exports a read-only view of the optimal simplex tableau for
// cut separation (internal/milp/cuts). Gomory mixed-integer cuts are
// derived from rows of B⁻¹·[A I], which only the simplex engine can
// produce: the sparse engine never materializes the inverse, so each
// requested row is read back through the LU factorization with one
// BTRAN (binvRow) and expanded against the CSR row mirror.

// ColStatus is the exported status of a tableau column in an optimal
// basis. Columns are indexed 0..NumStruct()-1 for structural variables
// and NumStruct()+r for the slack of row r, which are all the columns
// the tableau has.
type ColStatus int8

// Column statuses.
const (
	// ColAtLower: nonbasic at its lower bound.
	ColAtLower ColStatus = iota + 1
	// ColAtUpper: nonbasic at its upper bound.
	ColAtUpper
	// ColBasic: basic (its value lives in the row it occupies).
	ColBasic
	// ColFree: nonbasic free variable resting at zero.
	ColFree
)

// TableauView is a read-only window onto the Solver's internal tableau,
// valid only while the tableau still describes the most recent solve:
// any subsequent SolveFrom call on the same Solver
// invalidates it. It deliberately exposes no mutation — cut separation
// reads rows, statuses and bounds, and everything it derives is
// re-verified against the model before use.
type TableauView struct {
	t *tableau
}

// TableauView returns a view of the optimal tableau left behind by the
// Solver's most recent solve, or nil when the last solve did not end
// StatusOptimal (the same condition under which Basis returns nil).
func (s *Solver) TableauView() *TableauView {
	if !s.t.lastOptimal {
		return nil
	}
	return &TableauView{t: &s.t}
}

// NumRows returns the row count m. Slack j of row r is column
// NumStruct()+r.
func (v *TableauView) NumRows() int { return v.t.m }

// NumStruct returns the structural-variable count n.
func (v *TableauView) NumStruct() int { return v.t.nStruct }

// Status returns the status of column j (0 ≤ j < NumStruct()+NumRows()).
func (v *TableauView) Status(j int) ColStatus {
	switch v.t.status[j] {
	case atLower:
		return ColAtLower
	case atUpper:
		return ColAtUpper
	case basic:
		return ColBasic
	default:
		return ColFree
	}
}

// Value returns the current value of column j.
func (v *TableauView) Value(j int) float64 { return v.t.value[j] }

// Bounds returns the bounds of column j as the tableau solved them
// (slack bounds encode the row sense: LE [0,∞), GE (−∞,0], EQ [0,0]).
func (v *TableauView) Bounds(j int) (lo, hi float64) {
	return v.t.lower[j], v.t.upper[j]
}

// BasicCol returns the column basic in row r.
func (v *TableauView) BasicCol(r int) int { return int(v.t.basicIn[r]) }

// BasicValue returns the value of the column basic in row r.
func (v *TableauView) BasicValue(r int) float64 { return v.t.xB[r] }

// Row computes tableau row r — row r of B⁻¹·[A I] — densely over the
// NumStruct()+NumRows() structural and slack columns, into buf (grown
// as needed) which it returns. One BTRAN produces ρ = B⁻ᵀe_r; the
// structural part is ρᵀA expanded against the CSR row mirror (only rows
// where ρ is nonzero are visited), and the slack part is ρ itself
// (slack columns are unit columns with coefficient +1).
func (v *TableauView) Row(r int, buf []float64) []float64 {
	t := v.t
	n, m := t.nStruct, t.m
	buf = reuseF64(buf, n+m)
	rho := t.binvRow(r)
	for ri := 0; ri < m; ri++ {
		p := rho[ri]
		if tol.IsZero(p) {
			continue
		}
		for k := t.rowStart[ri]; k < t.rowStart[ri+1]; k++ {
			buf[t.rowVar[k]] += p * t.rowCoef[k]
		}
		buf[n+ri] = p
	}
	return buf
}
