package simplex

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"github.com/etransform/etransform/internal/lp"
)

// denseFromCols materializes the m×m basis matrix B (row-major) whose
// column i is cols[basicIn[i]] — the independent oracle every LU test
// checks residuals against.
func denseFromCols(m int, cols []sparseCol, basicIn []int32) []float64 {
	B := make([]float64, m*m)
	for i := 0; i < m; i++ {
		c := cols[basicIn[i]]
		for k, r := range c.rows {
			B[int(r)*m+i] = c.coefs[k]
		}
	}
	return B
}

func matVec(B []float64, m int, x []float64) []float64 {
	y := make([]float64, m)
	for r := 0; r < m; r++ {
		s := 0.0
		for c := 0; c < m; c++ {
			s += B[r*m+c] * x[c]
		}
		y[r] = s
	}
	return y
}

func matTVec(B []float64, m int, x []float64) []float64 {
	y := make([]float64, m)
	for c := 0; c < m; c++ {
		s := 0.0
		for r := 0; r < m; r++ {
			s += B[r*m+c] * x[r]
		}
		y[c] = s
	}
	return y
}

func maxAbsDiff(a, b []float64) float64 {
	worst := 0.0
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > worst {
			worst = d
		}
	}
	return worst
}

// randomBasis builds m random sparse columns that are almost surely
// nonsingular: a permuted unit diagonal plus a few random off-diagonal
// entries per column.
func randomBasis(rng *rand.Rand, m int) ([]sparseCol, []int32) {
	cols := make([]sparseCol, m)
	basicIn := make([]int32, m)
	perm := rng.Perm(m)
	for i := 0; i < m; i++ {
		basicIn[i] = int32(i)
		c := &cols[i]
		diag := int32(perm[i])
		c.rows = append(c.rows, diag)
		c.coefs = append(c.coefs, 1+rng.Float64())
		for k := 0; k < rng.Intn(3); k++ {
			r := int32(rng.Intn(m))
			dup := false
			for _, have := range c.rows {
				if have == r {
					dup = true
				}
			}
			if !dup {
				c.rows = append(c.rows, r)
				c.coefs = append(c.coefs, rng.Float64()*2-1)
			}
		}
	}
	return cols, basicIn
}

// TestLUSolveResiduals factorizes random sparse bases and checks both
// solve directions against the dense matrix: B·(FTRAN b) = b and
// Bᵀ·(BTRAN c) = c to tight absolute residuals.
func TestLUSolveResiduals(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		m := 1 + rng.Intn(12)
		cols, basicIn := randomBasis(rng, m)
		var f luFactor
		if err := f.factorize(m, cols, basicIn); err != nil {
			t.Fatalf("trial %d: unexpected singular: %v", trial, err)
		}
		B := denseFromCols(m, cols, basicIn)

		b := make([]float64, m)
		for i := range b {
			b[i] = rng.Float64()*10 - 5
		}
		x := append([]float64(nil), b...)
		f.solveB(x)
		if d := maxAbsDiff(matVec(B, m, x), b); d > 1e-9 {
			t.Fatalf("trial %d (m=%d): FTRAN residual %g", trial, m, d)
		}

		c := make([]float64, m)
		for i := range c {
			c[i] = rng.Float64()*10 - 5
		}
		y := append([]float64(nil), c...)
		f.solveBT(y)
		if d := maxAbsDiff(matTVec(B, m, y), c); d > 1e-9 {
			t.Fatalf("trial %d (m=%d): BTRAN residual %g", trial, m, d)
		}
	}
}

// TestLUSingularBasisDetection feeds structurally and numerically
// singular bases and demands the named error instead of garbage factors.
func TestLUSingularBasisDetection(t *testing.T) {
	cases := []struct {
		name    string
		cols    []sparseCol
		basicIn []int32
	}{
		{
			name: "duplicate column",
			cols: []sparseCol{
				{rows: []int32{0, 1}, coefs: []float64{1, 2}},
				{rows: []int32{0, 1}, coefs: []float64{1, 2}},
			},
			basicIn: []int32{0, 1},
		},
		{
			name: "empty column",
			cols: []sparseCol{
				{rows: []int32{0}, coefs: []float64{1}},
				{},
			},
			basicIn: []int32{0, 1},
		},
		{
			name: "linearly dependent",
			cols: []sparseCol{
				{rows: []int32{0, 1}, coefs: []float64{1, 1}},
				{rows: []int32{0, 1}, coefs: []float64{2, 2}},
			},
			basicIn: []int32{0, 1},
		},
		{
			name: "below singular tolerance",
			cols: []sparseCol{
				{rows: []int32{0}, coefs: []float64{1e-13}},
				{rows: []int32{1}, coefs: []float64{1}},
			},
			basicIn: []int32{0, 1},
		},
	}
	for _, tc := range cases {
		var f luFactor
		err := f.factorize(len(tc.basicIn), tc.cols, tc.basicIn)
		if err == nil {
			t.Errorf("%s: factorize accepted a singular basis", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), "singular") {
			t.Errorf("%s: error %q does not name singularity", tc.name, err)
		}
	}
}

// TestLUMarkowitzRejectsTinyPivot builds a column where the sparsest row
// holds a tiny (but above tol.Singular) value while a denser row holds a
// well-scaled one: threshold pivoting must spend the fill and take the
// stable pivot, keeping the solve accurate. With the tiny entry at 1e-8
// a pivot on it would amplify rounding by ~1e8 — far beyond the 1e-9
// residual demanded here.
func TestLUMarkowitzRejectsTinyPivot(t *testing.T) {
	// B = | 1e-8  1  0 |
	//     | 1     0  1 |
	//     | 1     1  1 |   (columns are the basis columns)
	cols := []sparseCol{
		{rows: []int32{0, 1, 2}, coefs: []float64{1e-8, 1, 1}},
		{rows: []int32{0, 2}, coefs: []float64{1, 1}},
		{rows: []int32{1, 2}, coefs: []float64{1, 1}},
	}
	basicIn := []int32{0, 1, 2}
	var f luFactor
	if err := f.factorize(3, cols, basicIn); err != nil {
		t.Fatalf("factorize: %v", err)
	}
	B := denseFromCols(3, cols, basicIn)
	b := []float64{1, 2, 3}
	x := append([]float64(nil), b...)
	f.solveB(x)
	if d := maxAbsDiff(matVec(B, 3, x), b); d > 1e-9 {
		t.Fatalf("solve through tiny-pivot basis lost accuracy: residual %g", d)
	}
}

// TestRefactorAfterKEtasEquivalence solves random LPs, and a
// branch-like child of each from its parent's optimal basis, with eta
// caps 1 (refactorize every pivot), 8, the default 64 and effectively
// never, and checks every solve against exactLP and against cap 1's
// solve of the same LP (same status, objective within 1e-7 relative):
// the refactorization policy must be invisible in the results. Every LP
// of the family starts dual, cold from the slack basis or warm from the
// parent's, and the restoration carries its maintained reduced costs
// through each refactorization (factorizeBasis), so at cap 1 every
// restoration pivot after the first prices values that went through
// one. The floor on those pivots keeps the family on that path.
func TestRefactorAfterKEtasEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	caps := []int{1, 8, 64, 1 << 20}
	refactored := 0
	// agree records the first cap's solution as the reference and holds
	// every later cap to it.
	agree := func(label string, got *lp.Solution, ref **lp.Solution) {
		t.Helper()
		if *ref == nil {
			*ref = got
			return
		}
		want := *ref
		if got.Status != want.Status {
			t.Fatalf("%s: status %v, cap %d gave %v", label, got.Status, caps[0], want.Status)
		}
		if got.Status != lp.StatusOptimal {
			return
		}
		if d := math.Abs(got.Objective - want.Objective); d > 1e-7*math.Max(1, math.Abs(want.Objective)) {
			t.Fatalf("%s: objective %v, cap %d gave %v (diff %g)", label, got.Objective, caps[0], want.Objective, d)
		}
	}
	for trial := 0; trial < 120; trial++ {
		parent := randomLP(rng, 1+rng.Intn(12), 1+rng.Intn(8))
		var child *lp.Model
		var parentRef, childRef *lp.Solution
		for _, every := range caps {
			s := NewSolver(&Options{refactorEvery: every})
			countRefactored := func() {
				if every == 1 && s.t.dualPivots > 1 {
					refactored += s.t.dualPivots - 1
				}
			}
			psol, err := s.SolveFrom(context.Background(), parent, nil)
			label := fmt.Sprintf("trial %d cap %d", trial, every)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			matchesExact(t, label, parent, psol)
			agree(label, psol, &parentRef)
			countRefactored()
			if psol.Status != lp.StatusOptimal {
				continue
			}
			if child == nil {
				child = parent.Clone()
				branchLike(child, psol, rng)
			}
			csol, err := s.SolveFrom(context.Background(), child, s.Basis())
			if err != nil {
				t.Fatalf("%s child: %v", label, err)
			}
			matchesExact(t, label+" child", child, csol)
			agree(label+" child", csol, &childRef)
			countRefactored()
		}
	}
	if refactored < 150 {
		t.Fatalf("%d restoration pivots at cap 1 followed a refactorization: family too easy", refactored)
	}
	t.Logf("%d restoration pivots at cap 1 followed a refactorization", refactored)
}

// FuzzFTUpdate drives random product-form update chains against a
// factorized basis and asserts the operator still solves its matrix:
// after every accepted update the dense mirror B has the pivot column
// replaced too, and B·FTRAN(b) = b must hold to a tolerance that only
// grows with honest conditioning, not with bugs in the eta algebra.
func FuzzFTUpdate(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(6))
	f.Add(int64(99), uint8(9), uint8(20))
	f.Add(int64(-7), uint8(2), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, mRaw, chainRaw uint8) {
		m := 1 + int(mRaw%10)
		chain := int(chainRaw % 24)
		rng := rand.New(rand.NewSource(seed))
		cols, basicIn := randomBasis(rng, m)
		la := &sparseLA{}
		if err := la.refactor(m, cols, basicIn); err != nil {
			t.Skip("randomly singular start")
		}
		B := denseFromCols(m, cols, basicIn)

		applied := 0
		for k := 0; k < chain; k++ {
			// A random replacement column, dense in original-row space.
			a := make([]float64, m)
			nz := 1 + rng.Intn(3)
			for i := 0; i < nz; i++ {
				a[rng.Intn(m)] = rng.Float64()*4 - 2
			}
			r := rng.Intn(m)
			w := append([]float64(nil), a...)
			la.ftran(w)
			if math.Abs(w[r]) < 1e-2 {
				// The pivot loop would never accept so small a pivot; the
				// fuzz target checks the update algebra, not conditioning.
				continue
			}
			la.etas.push(r, w)
			for i := 0; i < m; i++ {
				B[i*m+r] = a[i]
			}
			applied++
		}

		b := make([]float64, m)
		for i := range b {
			b[i] = rng.Float64()*10 - 5
		}
		x := append([]float64(nil), b...)
		la.ftran(x)
		scale := 1.0
		for _, v := range x {
			if a := math.Abs(v); a > scale {
				scale = a
			}
		}
		if d := maxAbsDiff(matVec(B, m, x), b); d > 1e-7*scale {
			t.Fatalf("m=%d chain=%d applied=%d: B·x−b residual %g (scale %g)",
				m, chain, applied, d, scale)
		}

		c := make([]float64, m)
		for i := range c {
			c[i] = rng.Float64()*10 - 5
		}
		y := append([]float64(nil), c...)
		la.btran(y)
		scale = 1.0
		for _, v := range y {
			if a := math.Abs(v); a > scale {
				scale = a
			}
		}
		if d := maxAbsDiff(matTVec(B, m, y), c); d > 1e-7*scale {
			t.Fatalf("m=%d chain=%d applied=%d: Bᵀ·y−c residual %g (scale %g)",
				m, chain, applied, d, scale)
		}
	})
}
